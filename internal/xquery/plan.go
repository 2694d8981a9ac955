package xquery

import (
	"slices"
	"strings"

	"mhxquery/internal/core"
	"mhxquery/internal/dom"
)

// This file is the compile→plan→execute layer. Compile parses a query
// into an AST and lowers the ENTIRE AST — every expression kind, not
// just paths — into physical operators (pnode, lower.go), once per
// query. Node tests bind to interned name symbols and hierarchy indices
// at run time, per (operator, document). Execution pushes (push.go):
// results flow from name-index runs and axis steps through predicates,
// FLWOR bindings and aggregation into a consumer, so early-exit
// consumers stop the pipeline after the items they need.
//
// Within a path, each step lowers to one of three operators:
//
//   - index-scan: descendant::name and descendant-or-self::name steps
//     (including the //name abbreviation, whose descendant-or-self::
//     node()/child::name pair is fused at plan time) read the
//     structural name index (core nameindex.go) instead of walking the
//     GODDAG: per hierarchy, the ascending ordinal run of elements
//     bearing the name, restricted to the context subtree by binary
//     search, emitted in document order with no per-candidate test.
//     When //name's predicates may read position, the scan groups the
//     run by parent and feeds each parent's children to the predicates
//     as one segment (pushGroups), the focus the expanded form gives
//     them.
//   - axis-step: every other axis step runs through the order-aware
//     pipeline (pipeline.go).
//   - primary: a primary-expression step ("$x/string(.)").
//
// Each index-scan and axis-step context contributes one segment (a
// per-parent scan one per parent), built by indexSegment or
// axisSegment. One route runs every step (runStep, push.go): a path's
// last step pushes the segments one by one where they follow each
// other in document order, and otherwise, like every step before it,
// collects them and puts them in order. A root scan under predicates
// that read only the candidate is the survivor set of its name's run
// (survivors, semijoin.go), read from the version memo once stored.
//
// Every lowering choice is syntactic — index scan, semi-join
// (semijoin.go), existence probe — and nothing in a plan depends on a
// document, so a query has exactly one plan. Predicates and bindings run
// in source order. Plans are immutable and shared, and hold no document:
// all mutable evaluation state lives in evalState, and each scan
// operator resolves its name binding against the document it is
// evaluating, reusing it while that document stays the same. One plan
// therefore serves every document, later versions and analyze-string
// overlay documents included, and never keeps a document reachable.
// Explain runs a plan with per-operator cardinality counters and
// renders the full operator tree.

// ---- plan structure --------------------------------------------------------

// Plan is a query lowered to physical operators. A Plan is immutable,
// safe for concurrent evaluation, and references no document.
type Plan struct {
	prog pnode
	nOps int
	root *explainNode
	// forced is set on a plan lowered with a planForce: it never shares
	// a version's memo (sharedMemo), so the plan-choice differentials
	// compute every answer themselves.
	forced bool
}

// Operator kinds.
const (
	opAxisStep  = iota // generic pipeline step (axisSegment)
	opIndexScan        // structural name index scan
	opPrimStep         // primary-expression step (evalPrimStep)
)

// pathOp is one physical operator of a path plan. Its step is a plan
// copy of the AST step whose predicates are themselves lowered pnodes,
// so predicate evaluation inside the operator runs through the physical
// engine too; a primary step holds its lowered expression instead.
type pathOp struct {
	kind     int
	s        *step // the lowered step (axis steps and index scans)
	prim     pnode // the lowered primary expression (primary steps)
	id       int   // cardinality counter slot
	primLast bool  // primary step: last op of its path
	// expand, set on the index scan of //name[p] whose predicates may
	// read position, is the descendant-or-self::node()/child::name[p]
	// pair it stands for: the scan's predicates see one parent's
	// children at a time, and the pair runs where the contexts'
	// segments cannot be pushed in order (stepPair).
	expand []*pathOp
	// key is set on an index scan of an unqualified name whose
	// predicates depend on the candidate alone (candidateOnly): from the
	// document root, its result is the survivor set of the name's run
	// under them, named by their canonical text (survivors).
	key string
}

// ---- planner ---------------------------------------------------------------

type planner struct {
	pl *Plan
	planForce
	// analyze is set when the query calls analyze-string: lowering then
	// marks the operators whose subtree does (lower.go).
	analyze bool
	// noSet is set while lowering the operands of a truth test that
	// answers from survivor sets (memberSet), which need none of theirs.
	noSet bool
}

// planForce forces the canonical side of the planner's choices: noIndex
// runs every step on the axis pipeline. Compile passes the zero value;
// the package tests set it to check that the index-scan plan returns
// the axis pipeline's answer.
type planForce struct {
	noIndex bool
}

// newPlan lowers q's whole expression tree.
func newPlan(q *Query, force planForce) *Plan {
	pl := &Plan{forced: force != (planForce{})}
	pn := &planner{pl: pl, planForce: force, analyze: anyExpr(q.body, isAnalyzeCall)}
	root := &explainNode{op: "query", id: -1}
	pl.prog = pn.lower(q.body, root)
	pl.root = root
	return pl
}

func (pn *planner) newOpID() int {
	id := pn.pl.nOps
	pn.pl.nOps++
	return id
}

// enode creates an explain-tree node under parent and the pbase that
// ties a pnode to its cardinality slot; detail is as explainNode's.
func (pn *planner) enode(parent *explainNode, op string, detail any) (*explainNode, pbase) {
	id := pn.newOpID()
	en := &explainNode{op: op, detail: detail, id: id}
	parent.kids = append(parent.kids, en)
	return en, pbase{id: id}
}

// group creates a structural explain node (no cardinality slot of its
// own) under parent.
func (pn *planner) group(parent *explainNode, op string, detail any) *explainNode {
	en := &explainNode{op: op, detail: detail, id: -1}
	parent.kids = append(parent.kids, en)
	return en
}

// lower translates one AST expression into its physical operator,
// recording the operator (and its lowered children) in the explain
// tree.
func (pn *planner) lower(e expr, parent *explainNode) pnode {
	n := pn.lowerExpr(e, parent)
	if pn.analyze && anyExpr(e, isAnalyzeCall) {
		n.(interface{ markOverlays() }).markOverlays()
	}
	return n
}

func (pn *planner) lowerExpr(e expr, parent *explainNode) pnode {
	switch x := e.(type) {
	case *literalExpr:
		_, pb := pn.enode(parent, "literal", x)
		return &pLiteral{pbase: pb, v: x.v, seq: x.seq}
	case *rawTextExpr:
		return &pLiteral{pbase: pbase{id: -1}, v: x.s, seq: singleton(x.s)}
	case *varExpr:
		_, pb := pn.enode(parent, "var", x)
		return &pVar{pbase: pb, name: x.name}
	case *contextItemExpr:
		_, pb := pn.enode(parent, "context-item", ".")
		return &pContextItem{pbase: pb}
	case *rootExpr:
		_, pb := pn.enode(parent, "root", "/")
		return &pRoot{pbase: pb}
	case *seqExpr:
		en, pb := pn.enode(parent, "sequence", "")
		items := make([]pnode, len(x.items))
		for i, it := range x.items {
			items[i] = pn.lower(it, en)
		}
		return &pSeq{pbase: pb, items: items}
	case *rangeExpr:
		en, pb := pn.enode(parent, "range", "to")
		return &pRange{pbase: pb, lo: pn.lower(x.lo, en), hi: pn.lower(x.hi, en)}
	case *orExpr:
		en, pb := pn.enode(parent, "or", "")
		return &pLogic{pbase: pb, a: pn.lowerTruth(x.a, en), b: pn.lowerTruth(x.b, en)}
	case *andExpr:
		en, pb := pn.enode(parent, "and", "")
		return &pLogic{pbase: pb, and: true, a: pn.lowerTruth(x.a, en), b: pn.lowerTruth(x.b, en)}
	case *cmpExpr:
		en, pb := pn.enode(parent, "compare", x.op)
		return &pCmp{pbase: pb, op: x.op, kind: x.kind, a: pn.lower(x.a, en), b: pn.lower(x.b, en)}
	case *arithExpr:
		en, pb := pn.enode(parent, "arith", x.op)
		return &pArith{pbase: pb, op: x.op, a: pn.lower(x.a, en), b: pn.lower(x.b, en)}
	case *unaryExpr:
		en, pb := pn.enode(parent, "unary", "-")
		return &pUnary{pbase: pb, x: pn.lower(x.x, en)}
	case *unionExpr:
		en, pb := pn.enode(parent, "union", "|")
		return &pSetOp{pbase: pb, op: "union", a: pn.lower(x.a, en), b: pn.lower(x.b, en)}
	case *intersectExpr:
		op := "intersect"
		if x.except {
			op = "except"
		}
		en, pb := pn.enode(parent, op, "")
		return &pSetOp{pbase: pb, op: op, a: pn.lower(x.a, en), b: pn.lower(x.b, en)}
	case *ifExpr:
		en, pb := pn.enode(parent, "if", "")
		return &pIf{
			pbase: pb,
			cond:  pn.lowerTruth(x.cond, pn.group(en, "condition", "")),
			then:  pn.lower(x.then, pn.group(en, "then", "")),
			els:   pn.lower(x.els, pn.group(en, "else", "")),
		}
	case *quantExpr:
		en, pb := pn.enode(parent, "quantified", x)
		f := &pFLWOR{pbase: pbase{id: pn.newOpID()}, ret: &pLiteral{pbase: pbase{id: -1}, v: true, seq: seqTrue}}
		for i, s := range x.srcs {
			f.clauses = append(f.clauses, pClause{kind: clauseFor, name: x.names[i], src: pn.lower(s, en)})
		}
		sat := pn.lowerTruth(x.sat, pn.group(en, "satisfies", ""))
		if x.every {
			sat = &pCall{pbase: pbase{id: pn.newOpID(), ovl: sat.overlays()}, name: "not", fn: bNot, args: []pnode{sat}}
		}
		f.clauses = append(f.clauses, pClause{kind: clauseWhere, src: sat})
		f.setCollect()
		return &pQuant{pbase: pb, every: x.every, tuples: f}
	case *flworExpr:
		return pn.lowerFLWOR(x, parent)
	case *callExpr:
		en, pb := pn.enode(parent, "call", x)
		call := &pCall{pbase: pb, name: x.name, fn: x.fn}
		for _, a := range x.args {
			lower := pn.lower
			if len(x.args) == 1 {
				switch x.fn {
				case bExists, bEmpty, bNot, bBoolean:
					lower = pn.lowerTruth
				}
			}
			call.args = append(call.args, lower(a, en))
		}
		return call
	case *filterExpr:
		en, pb := pn.enode(parent, "filter", x)
		f := &pFilter{pbase: pb, base: pn.lower(x.base, en)}
		for _, pr := range x.preds {
			f.preds = append(f.preds, pn.stage(pr, pn.lowerTruth(pr, pn.group(en, "predicate", ""))))
		}
		return f
	case *pathExpr:
		return pn.lowerPath(x, parent)
	case *elemExpr:
		en, pb := pn.enode(parent, "element", x)
		pe := &pElem{pbase: pb, name: x.name}
		for _, a := range x.attrs {
			tpl := pAttr{name: a.name}
			for _, part := range a.parts {
				tpl.parts = append(tpl.parts, pn.lower(part, en))
			}
			pe.attrs = append(pe.attrs, tpl)
		}
		for _, ce := range x.content {
			pe.content = append(pe.content, pn.lower(ce, en))
		}
		return pe
	case *compCtorExpr:
		en, pb := pn.enode(parent, "constructor", x)
		cc := &pCompCtor{pbase: pb, kind: x.kind, name: x.name}
		if x.nameExpr != nil {
			cc.nameExpr = pn.lower(x.nameExpr, en)
		}
		if x.content != nil {
			cc.content = pn.lower(x.content, en)
		}
		return cc
	}
	// Unreachable: the parser produces only the kinds above. A literal
	// empty sequence keeps the engine total.
	_, pb := pn.enode(parent, "unknown", "")
	return &pLiteral{pbase: pb, seq: Seq{}}
}

func (pn *planner) lowerFLWOR(x *flworExpr, parent *explainNode) pnode {
	en, pb := pn.enode(parent, "flwor", "")
	f := &pFLWOR{pbase: pb}
	for i := range x.clauses {
		cl := &x.clauses[i]
		var g *explainNode
		lower := pn.lower
		switch cl.kind {
		case clauseFor:
			g = pn.group(en, "for", cl)
		case clauseLet:
			g = pn.group(en, "let", cl)
		default:
			g = pn.group(en, "where", "")
			lower = pn.lowerTruth
		}
		f.clauses = append(f.clauses, pClause{
			kind:    cl.kind,
			name:    cl.name,
			posName: cl.posName,
			src:     lower(cl.src, g),
		})
	}
	for _, o := range x.order {
		detail := "ascending"
		if o.descending {
			detail = "descending"
		}
		g := pn.group(en, "order-by", detail)
		f.order = append(f.order, pOrderSpec{
			key:  pn.lower(o.key, g),
			spec: orderSpec{descending: o.descending, emptyGreatest: o.emptyGreatest},
		})
	}
	f.ret = pn.lower(x.ret, pn.group(en, "return", ""))
	f.setCollect()
	return f
}

// indexableStep reports whether the step can run as an index scan: a
// descendant(-or-self) axis step with a plain name test. Predicates are
// allowed (they filter index candidates exactly as they filter axis
// candidates).
func indexableStep(s *step) bool {
	return s.prim == nil && s.test.kind == testName &&
		(s.axis == core.AxisDescendant || s.axis == core.AxisDescendantOrSelf)
}

// fusibleDOS reports whether the step is the bare descendant-or-self::
// node() that the // abbreviation expands to, with nothing attached.
func fusibleDOS(s *step) bool {
	return s.prim == nil && s.axis == core.AxisDescendantOrSelf &&
		s.test.kind == testNode && len(s.test.hiers) == 0 && len(s.preds) == 0
}

// stage marks the lowered predicate p of source pr when pr reads last()
// in its own focus: its stage then needs its input's size (chain).
func (pn *planner) stage(pr expr, p pnode) pnode {
	if usesFocus(pr, true) {
		p.(interface{ markReadsLast() }).markReadsLast()
	}
	return p
}

// fusablePreds reports whether a child::name step's predicates survive
// the //name fusion: descendant-or-self::node()/child::name[p] equals
// descendant::name[p] only when p is position-independent — predicate
// positions are per parent before fusion and per subtree after. A
// predicate is fusable when it cannot select by position: it never
// evaluates to a single number (predNeverNumeric) and never consults
// position()/last() in the step's own focus (usesFocus).
func fusablePreds(preds []expr) bool {
	for _, pr := range preds {
		if !predNeverNumeric(pr) || usesFocus(pr, false) {
			return false
		}
	}
	return true
}

// predNeverNumeric reports (conservatively) that the predicate's value
// can never be a single number: boolean connectives and comparisons,
// quantifiers, node-valued paths and the boolean builtins.
func predNeverNumeric(e expr) bool {
	switch x := e.(type) {
	case *orExpr, *andExpr, *cmpExpr, *quantExpr:
		return true
	case *pathExpr:
		// A path ending in an axis step yields nodes; a trailing
		// primary step could yield anything.
		return len(x.steps) > 0 && x.steps[len(x.steps)-1].prim == nil
	case *callExpr:
		switch x.fn.name {
		case "exists", "empty", "not", "boolean", "matches", "contains",
			"starts-with", "ends-with", "true", "false", "deep-equal":
			return true
		}
	}
	return false
}

// candidateOnly reports whether a scan predicate's value depends on the
// candidate node alone, so that a root scan's survivors are a property
// of the document version (survivors), and its canonical text names
// exactly it: it is fusable (so it reads neither position() nor last()
// of the scan's focus) and written, down to its leaves, in the language
// canon prints in full — literals, the context item, and/or,
// comparisons, calls of any function but analyze-string, doc() and
// collection(), and paths of axis steps with no start expression.
func candidateOnly(pr expr) bool {
	return fusablePreds([]expr{pr}) && !anyExpr(pr, func(e expr) bool {
		switch x := e.(type) {
		case *literalExpr, *contextItemExpr, *orExpr, *andExpr, *cmpExpr:
			return false
		case *callExpr:
			return x.fn.name == "analyze-string" || x.fn.name == "doc" || x.fn.name == "collection"
		case *pathExpr:
			return x.start != nil || slices.ContainsFunc(x.steps, func(s *step) bool { return s.prim != nil })
		}
		return true
	})
}

// usesFocus reports whether e reads last() (or, unless lastOnly,
// position()) in the focus it is evaluated in. Nested step and filter
// predicates rebind the focus, so their bodies do not count; everything
// else (function arguments, quantifier satisfies clauses, FLWOR bodies,
// operands) shares the outer focus.
func usesFocus(e expr, lastOnly bool) bool {
	switch x := e.(type) {
	case *callExpr:
		if len(x.args) == 0 && (x.name == "last" || x.name == "position" && !lastOnly) {
			return true
		}
	case *pathExpr:
		// Steps evaluate in their own focus; only the start expression
		// sees ours.
		return x.start != nil && usesFocus(x.start, lastOnly)
	case *filterExpr:
		return usesFocus(x.base, lastOnly)
	}
	found := false
	visitChildren(e, func(ch expr) {
		found = found || usesFocus(ch, lastOnly)
	})
	return found
}

func (pn *planner) lowerPath(p *pathExpr, parent *explainNode) pnode {
	node, pb := pn.enode(parent, "path", p)
	pp := &pPath{pbase: pb, absolute: p.absolute}
	if p.start != nil {
		pp.start = pn.lower(p.start, node)
	}
	steps := p.steps
	for i := 0; i < len(steps); i++ {
		s := steps[i]
		// Fuse the // abbreviation (descendant-or-self::node()/
		// child::name) into one descendant::name index scan: the two
		// select the same node set in the same document order. The
		// child step's predicates ride along. Positions are per parent
		// before the fusion and per subtree after it, so predicates
		// that may read position keep the per-parent focus: the scan
		// remembers the pair (pathOp.expand). The noIndex plan keeps
		// that pair as it is.
		var pair []*step
		if fusibleDOS(s) && i+1 < len(steps) {
			next := steps[i+1]
			if next.prim == nil && next.axis == core.AxisChild && next.test.kind == testName {
				positional := !fusablePreds(next.preds)
				if !positional || !pn.noIndex {
					if positional {
						pair = []*step{s, next}
					}
					s = &step{axis: core.AxisDescendant, test: next.test, preds: next.preds}
					i++
				}
			}
		}
		var op *pathOp
		var en *explainNode
		switch {
		case s.prim != nil:
			op = &pathOp{kind: opPrimStep, id: pn.newOpID()}
			en = &explainNode{op: "primary", detail: "expr()", id: op.id}
			node.kids = append(node.kids, en)
			op.prim = pn.lower(s.prim, en)
			pp.ops = append(pp.ops, op)
			continue
		case indexableStep(s) && !pn.noIndex:
			op = &pathOp{kind: opIndexScan, id: pn.newOpID()}
			en = &explainNode{op: "index-scan", detail: op, index: true, id: op.id}
		default:
			op = &pathOp{kind: opAxisStep, id: pn.newOpID()}
			en = &explainNode{op: "axis-step", detail: op, id: op.id}
		}
		node.kids = append(node.kids, en)
		// Plan copy of the step: the same axis and test, with predicates
		// lowered into the physical engine.
		cs := &step{axis: s.axis, test: s.test}
		for _, pr := range s.preds {
			cs.preds = append(cs.preds, pn.stage(pr, pn.lowerPred(pr, en)))
		}
		op.s = cs
		keyed := op.kind == opIndexScan && pair == nil && len(s.preds) > 0 && len(s.test.hiers) == 0
		for _, pr := range s.preds {
			keyed = keyed && candidateOnly(pr)
		}
		if keyed {
			if sj, ok := cs.preds[0].(*pSemiJoin); ok && len(cs.preds) == 1 && sj.key != "" {
				op.key = sj.key // a lone semi-join's canonical text, rendered already
			} else {
				op.key = predKey(s.preds)
			}
		}
		for _, ps := range pair {
			// The pair shares the scan's lowered predicates.
			ex := &step{axis: ps.axis, test: ps.test}
			if len(ps.preds) > 0 {
				ex.preds = cs.preds
			}
			op.expand = append(op.expand, &pathOp{kind: opAxisStep, s: ex, id: pn.newOpID()})
		}
		pp.ops = append(pp.ops, op)
	}
	for oi, op := range pp.ops {
		if op.kind == opPrimStep {
			op.primLast = oi == len(pp.ops)-1
		}
	}
	return pp
}

// visitChildren invokes visit for every direct child expression of e.
// For path expressions this includes the start expression, every step
// predicate and every primary step body.
func visitChildren(e expr, visit func(expr)) {
	switch x := e.(type) {
	case *seqExpr:
		for _, it := range x.items {
			visit(it)
		}
	case *rangeExpr:
		visit(x.lo)
		visit(x.hi)
	case *orExpr:
		visit(x.a)
		visit(x.b)
	case *andExpr:
		visit(x.a)
		visit(x.b)
	case *cmpExpr:
		visit(x.a)
		visit(x.b)
	case *arithExpr:
		visit(x.a)
		visit(x.b)
	case *unaryExpr:
		visit(x.x)
	case *unionExpr:
		visit(x.a)
		visit(x.b)
	case *intersectExpr:
		visit(x.a)
		visit(x.b)
	case *ifExpr:
		visit(x.cond)
		visit(x.then)
		visit(x.els)
	case *quantExpr:
		for _, s := range x.srcs {
			visit(s)
		}
		visit(x.sat)
	case *flworExpr:
		for _, cl := range x.clauses {
			visit(cl.src)
		}
		for _, o := range x.order {
			visit(o.key)
		}
		visit(x.ret)
	case *callExpr:
		for _, a := range x.args {
			visit(a)
		}
	case *filterExpr:
		visit(x.base)
		for _, pr := range x.preds {
			visit(pr)
		}
	case *pathExpr:
		if x.start != nil {
			visit(x.start)
		}
		for _, s := range x.steps {
			for _, pr := range s.preds {
				visit(pr)
			}
			if s.prim != nil {
				visit(s.prim)
			}
		}
	case *elemExpr:
		for _, a := range x.attrs {
			for _, part := range a.parts {
				visit(part)
			}
		}
		for _, ce := range x.content {
			visit(ce)
		}
	case *compCtorExpr:
		if x.nameExpr != nil {
			visit(x.nameExpr)
		}
		if x.content != nil {
			visit(x.content)
		}
	}
}

// ---- path execution --------------------------------------------------------

// opCard is one operator's observed cardinalities during an
// instrumented (Explain) evaluation. nanos accrues observed wall time
// only under EXPLAIN ANALYZE (evalState.timed); it is inclusive — an
// operator's time contains the time of the operators it ran, less the
// time its consumer spent on its items — matching the convention of
// PostgreSQL's "actual time".
type opCard struct {
	calls, in, out int64
	nanos          int64
}

// pPath is the lowered path expression: the operator list plus the
// lowered start expression (each is in push.go).
type pPath struct {
	pbase
	absolute bool
	start    pnode
	ops      []*pathOp
}

// indexSeg is one context node's index-scan segment in ascending
// document order: the context itself when a descendant-or-self step
// selects it, then the per-hierarchy name runs restricted to its
// subtree, walked by next.
type indexSeg struct {
	self *dom.Node
	rc   core.RunCursor
}

// indexSegment positions seg on context n's candidates for the
// index-scan step s, whose name test bind resolved against d: root or
// element context, hierarchy restriction, then the context itself for
// descendant-or-self. ok=false reports an empty segment. Only the
// shared root and hierarchy elements have element descendants; text,
// leaf and attribute contexts contribute nothing to a name test.
func indexSegment(seg *indexSeg, d *core.Document, n *dom.Node, s *step, bind *resolvedTest) (ok bool, err error) {
	seg.self = nil
	seg.rc.Reset()
	if bind.nameSym == 0 {
		// The name occurs nowhere in this document: no candidate
		// matches, so not even an unknown-hierarchy error can surface
		// (the reference checks kind and name first).
		return false, nil
	}
	inclSelf := s.axis == core.AxisDescendantOrSelf
	// An unknown hierarchy in the test leaves the restriction unresolved:
	// gather the unrestricted candidates, because the reference raises
	// the error only when a kind+name match reaches the hierarchy check.
	restrict := bind.hiers() == nil
	switch {
	case n == d.Root:
		if inclSelf && n.NameSym == bind.nameSym {
			seg.self = n // the root belongs to every hierarchy
		}
		for hi, h := range d.Hiers {
			if !restrict || bind.allows(hi) {
				seg.rc.Add(h, h.NameRun(bind.nameSym))
			}
		}
	case n.Kind == dom.Element && n.HierIndex >= 0 && n.HierIndex < len(d.Hiers):
		if restrict && !bind.allows(n.HierIndex) {
			return false, nil // descendants stay in the context's hierarchy
		}
		h := d.Hiers[n.HierIndex]
		if inclSelf && n.NameSym == bind.nameSym {
			seg.self = n
		}
		seg.rc.Add(h, core.SubRun(h.NameRun(bind.nameSym), n.Ord, n.Last))
	default:
		return false, nil
	}
	if !restrict {
		if seg.total() > 0 {
			return false, bind.hierErr
		}
		return false, nil
	}
	return seg.total() > 0, nil
}

func (seg *indexSeg) total() int {
	if seg.self != nil {
		return seg.rc.Len() + 1
	}
	return seg.rc.Len()
}

func (seg *indexSeg) next() (*dom.Node, bool) {
	if seg.self != nil {
		n := seg.self
		seg.self = nil
		return n, true
	}
	return seg.rc.Next()
}

// ---- EXPLAIN ---------------------------------------------------------------

// ExplainOp is one node of the operator tree Explain returns: the
// physical operator, its rendered detail, whether it is index-backed,
// and the cardinalities observed during the instrumented evaluation
// (Calls invocations consuming InRows context items and emitting
// OutRows result items in total). The tree covers the whole lowered
// query — FLWOR clauses, predicates, function calls — not only paths.
type ExplainOp struct {
	Op      string `json:"op"`
	Detail  string `json:"detail,omitempty"`
	Index   bool   `json:"index"`
	Calls   int64  `json:"calls,omitempty"`
	InRows  int64  `json:"in_rows,omitempty"`
	OutRows int64  `json:"out_rows,omitempty"`
	// Nanos is the operator's observed wall time under EXPLAIN ANALYZE
	// (zero under plain EXPLAIN). Times are inclusive: an operator's
	// Nanos contains the time of the operators it ran. At the root it
	// is the total query wall time.
	Nanos    int64        `json:"nanos,omitempty"`
	Children []*ExplainOp `json:"children,omitempty"`
}

// explainNode is the plan-time skeleton of the operator tree; id indexes
// the cardinality counter slot (-1 for structural nodes). detail is a
// string, or the AST or plan node the detail is rendered from when the
// plan is described (describe), so compiling builds no detail strings.
type explainNode struct {
	op     string
	detail any
	index  bool
	id     int
	kids   []*explainNode
}

// Describe renders the operator tree without cardinalities (no
// evaluation happens).
func (pl *Plan) Describe() *ExplainOp { return pl.render(nil) }

func (pl *Plan) render(counts []opCard) *ExplainOp { return renderExplain(pl.root, counts) }

func renderExplain(n *explainNode, counts []opCard) *ExplainOp {
	out := &ExplainOp{Op: n.op, Detail: n.describe(), Index: n.index}
	if n.id >= 0 && n.id < len(counts) {
		cd := counts[n.id]
		out.Calls, out.InRows, out.OutRows = cd.calls, cd.in, cd.out
		out.Nanos = cd.nanos
	}
	for _, k := range n.kids {
		out.Children = append(out.Children, renderExplain(k, counts))
	}
	return out
}

// describe renders the node's detail.
func (n *explainNode) describe() string {
	switch n.op {
	case "semi-join":
		return describeSemiJoin(n.detail.(expr))
	case "exists-probe":
		p := n.detail.(*pathExpr)
		if v, isVar := p.start.(*varExpr); isVar {
			return "$" + v.name + "/" + describeStep(p.steps[0])
		}
		return describeStep(p.steps[0])
	}
	switch x := n.detail.(type) {
	case string:
		return x
	case *literalExpr:
		return describeLiteral(x.v)
	case *varExpr:
		return "$" + x.name
	case *quantExpr:
		kw := "some"
		if x.every {
			kw = "every"
		}
		return kw + " $" + strings.Join(x.names, ", $")
	case *callExpr:
		return x.name + "()"
	case *filterExpr:
		return strings.Repeat("[…]", len(x.preds))
	case *elemExpr:
		return "<" + x.name + ">"
	case *compCtorExpr:
		return string(x.kind) + " " + x.name
	case *flworClause:
		if x.posName != "" {
			return "$" + x.name + " at $" + x.posName
		}
		return "$" + x.name
	case *pathOp:
		if x.expand != nil {
			return describeStep(x.s) + " per parent"
		}
		return describeStep(x.s)
	case *pathExpr:
		return describePath(x)
	case *step: // a semi-join target
		return describeTest(&x.test) + strings.Repeat("[…]", len(x.preds))
	}
	return ""
}

func describeTest(t *nodeTest) string {
	qual := ""
	if len(t.hiers) > 0 {
		qual = "('" + strings.Join(t.hiers, ",") + "')"
	}
	switch t.kind {
	case testName:
		return t.name + qual
	case testStar:
		return "*" + qual
	case testText:
		return "text()" + qual
	case testNode:
		return "node()" + qual
	case testComment:
		return "comment()"
	case testPI:
		if t.name != "" {
			return "processing-instruction(" + t.name + ")"
		}
		return "processing-instruction()"
	case testLeaf:
		return "leaf()" + qual
	}
	return "?"
}

func describeStep(s *step) string {
	if s.prim != nil {
		return "expr()"
	}
	d := s.axis.String() + "::" + describeTest(&s.test)
	if n := len(s.preds); n > 0 {
		d += strings.Repeat("[…]", n)
	}
	return d
}

func describePath(p *pathExpr) string {
	var b strings.Builder
	if p.start != nil {
		b.WriteString("(…)")
	}
	for i, s := range p.steps {
		if i > 0 || p.absolute || p.start != nil {
			b.WriteByte('/')
		}
		b.WriteString(describeStep(s))
	}
	return b.String()
}
