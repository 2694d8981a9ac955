package xquery

// This file is the plan-time cardinality estimator behind cost-based
// lowering (lowerPath, plan.go). Estimates come from the per-hierarchy
// path synopses (internal/synopsis): one node per distinct rooted label
// path with exact instance and text-child counts, maintained
// incrementally across document versions and persisted in slab images.
// Because every hierarchy is a plain tree, a rooted child/descendant
// name path maps to an exact set of synopsis nodes — the estimator
// promises q-error 1.0 on pure structural paths and degrades to
// heuristic selectivities only where predicates or unsupported axes
// enter.
//
// Everything here runs at plan time against the planned document; the
// resulting numbers steer two plan choices — predicate application
// order and quantifier/FLWOR binding order — and are recorded per
// operator (explainNode.est) so EXPLAIN and EXPLAIN ANALYZE print
// estimated next to observed rows. A plan evaluated against a different
// document than it was planned for keeps its estimates (they are
// advisory); correctness never depends on them.

import (
	"math"

	"mhxquery/internal/core"
	"mhxquery/internal/synopsis"
)

// defaultPredSel is the selectivity assumed for predicates the
// estimator cannot see through (comparisons, function calls, variables).
const defaultPredSel = 0.5

// maxEstPositions bounds the distinct synopsis positions tracked per
// step; beyond it, row counts stay usable but further steps give up
// rather than degrade silently.
const maxEstPositions = 64

type hierSyn struct {
	name string
	tree *synopsis.Tree
}

// estimator holds the planned document's synopses. A hierarchy without
// an available synopsis (a frozen document from a pre-synopsis image,
// not yet materialized) leaves tree nil and every estimate touching it
// unknown — estimation must never force materialization at plan time.
type estimator struct {
	d     *core.Document
	hiers []hierSyn
	ok    bool
}

func newEstimator(d *core.Document) *estimator {
	e := &estimator{d: d, ok: true}
	for _, h := range d.Hiers {
		t := h.SynopsisSnapshot()
		if t == nil && h.Nodes != nil {
			t = h.Synopsis()
		}
		if t == nil {
			e.ok = false
		}
		e.hiers = append(e.hiers, hierSyn{name: h.Name, tree: t})
	}
	return e
}

// estPos is one synopsis position of an estimated context: a rooted
// label path (node nil means the hierarchy's top level, i.e. the shared
// root) and the fraction of that path's instances estimated to be in
// the context.
type estPos struct {
	hier int
	node *synopsis.Node
	frac float64
}

// estCtx is an estimated context sequence: the expected row count and,
// while posOK holds, the synopsis positions the rows live on (the basis
// for estimating the next step).
type estCtx struct {
	known bool
	posOK bool
	rows  float64
	pos   []estPos
}

var estUnknown = estCtx{}

// estInt renders the row estimate for the explain tree: -1 when
// unknown.
func (c estCtx) estInt() int64 {
	if !c.known {
		return -1
	}
	return int64(math.Round(c.rows))
}

// scale multiplies the context by a selectivity.
func (c estCtx) scale(sel float64) estCtx {
	if !c.known {
		return c
	}
	c.rows *= sel
	out := make([]estPos, len(c.pos))
	for i, p := range c.pos {
		out[i] = estPos{hier: p.hier, node: p.node, frac: p.frac * sel}
	}
	c.pos = out
	return c
}

// rootCtx is the estimated context of "/": the single shared root,
// positioned at every hierarchy's top level.
func (e *estimator) rootCtx() estCtx {
	if !e.ok {
		return estUnknown
	}
	c := estCtx{known: true, posOK: true, rows: 1}
	for hi := range e.hiers {
		c.pos = append(c.pos, estPos{hier: hi, frac: 1})
	}
	return c
}

// add accumulates one synopsis position, merging duplicates (two
// context paths can reach the same child path).
func (c *estCtx) add(hier int, n *synopsis.Node, frac float64) {
	for i := range c.pos {
		if c.pos[i].hier == hier && c.pos[i].node == n {
			if c.pos[i].frac += frac; c.pos[i].frac > 1 {
				c.pos[i].frac = 1
			}
			return
		}
	}
	c.pos = append(c.pos, estPos{hier: hier, node: n, frac: frac})
}

// level returns a position's child list and text count.
func (e *estimator) level(p estPos) ([]*synopsis.Node, float64) {
	t := e.hiers[p.hier].tree
	if p.node == nil {
		return t.Kids, float64(t.Texts)
	}
	return p.node.Kids, float64(p.node.Texts)
}

// hierAllowed resolves a test's hierarchy qualifier against position p.
// Unknown hierarchy names estimate as zero contribution (the engine
// raises MHXQ0001 only when a candidate reaches the check).
func (e *estimator) hierAllowed(t *nodeTest, p estPos) bool {
	if len(t.hiers) == 0 {
		return true
	}
	for _, name := range t.hiers {
		if e.hiers[p.hier].name == name {
			return true
		}
	}
	return false
}

// stepBase estimates one axis step (axis and node test only — the
// caller layers positional shortcuts and predicate selectivities on
// top). Axes the synopsis cannot answer (upward, sibling, attribute,
// leaf) and tests it does not count (comments, PIs, leaves) return
// unknown.
func (e *estimator) stepBase(ctx estCtx, s *step) estCtx {
	if !ctx.known || !ctx.posOK || s.prim != nil {
		return estUnknown
	}
	t := &s.test
	var sym int32
	if t.kind == testName {
		if sym = e.d.NameSymOf(t.name); sym == 0 {
			return estCtx{known: true, posOK: true} // name occurs nowhere
		}
	}
	out := estCtx{known: true, posOK: true}
	for _, p := range ctx.pos {
		if !e.hierAllowed(t, p) {
			continue
		}
		switch s.axis {
		case core.AxisChild:
			kids, texts := e.level(p)
			switch t.kind {
			case testName:
				for _, k := range kids {
					if k.Sym == sym {
						out.add(p.hier, k, p.frac)
						break
					}
				}
			case testStar:
				for _, k := range kids {
					out.add(p.hier, k, p.frac)
				}
			case testText:
				out.rows += texts * p.frac
			case testNode:
				for _, k := range kids {
					out.add(p.hier, k, p.frac)
				}
				out.rows += texts * p.frac
			default:
				return estUnknown
			}
		case core.AxisDescendant, core.AxisDescendantOrSelf:
			self := s.axis == core.AxisDescendantOrSelf
			switch t.kind {
			case testName:
				if self && p.node != nil && p.node.Sym == sym {
					out.add(p.hier, p.node, p.frac)
				}
				e.eachBelow(p, func(n *synopsis.Node) {
					if n.Sym == sym {
						out.add(p.hier, n, p.frac)
					}
				})
			case testStar:
				if self && p.node != nil {
					out.add(p.hier, p.node, p.frac)
				}
				e.eachBelow(p, func(n *synopsis.Node) { out.add(p.hier, n, p.frac) })
			case testText:
				_, texts := e.level(p)
				out.rows += texts * p.frac
				e.eachBelow(p, func(n *synopsis.Node) {
					out.rows += float64(n.Texts) * p.frac
				})
			default:
				return estUnknown
			}
		case core.AxisSelf:
			if p.node == nil {
				return estUnknown // the shared root: not synopsis-positioned
			}
			switch {
			case t.kind == testName && p.node.Sym == sym,
				t.kind == testStar,
				t.kind == testNode:
				out.add(p.hier, p.node, p.frac)
			case t.kind == testText:
				// elements are not texts: contributes nothing
			default:
				return estUnknown
			}
		default:
			return estUnknown
		}
		if len(out.pos) > maxEstPositions {
			out.posOK = false
			out.pos = nil
			return estUnknown
		}
	}
	for _, p := range out.pos {
		out.rows += float64(p.node.Count) * p.frac
	}
	if len(out.pos) == 0 && out.rows > 0 {
		// Text rows: terminal for downward axes (texts have no element
		// children), which subsequent steps estimate correctly as zero.
		out.posOK = true
	}
	return out
}

// eachBelow visits every synopsis node strictly below position p.
func (e *estimator) eachBelow(p estPos, f func(*synopsis.Node)) {
	var rec func(kids []*synopsis.Node)
	rec = func(kids []*synopsis.Node) {
		for _, k := range kids {
			f(k)
			rec(k.Kids)
		}
	}
	kids, _ := e.level(p)
	rec(kids)
}

// estStep estimates a full step: axis and test, then the positional
// shortcut (at most one row per context row) and predicate
// selectivities.
func (e *estimator) estStep(ctx estCtx, s *step) estCtx {
	out := e.stepBase(ctx, s)
	if !out.known {
		return out
	}
	preds := s.preds
	if s.posSel != 0 {
		preds = preds[1:]
		if ctx.known && ctx.rows < out.rows {
			if out.rows > 0 {
				out = out.scale(ctx.rows / out.rows)
			}
		}
	}
	for _, pr := range preds {
		out = out.scale(e.predSel(out, pr))
	}
	return out
}

// estPath estimates a whole absolute path from the root (the only
// context the estimator knows from nothing). ok is false for paths the
// synopsis cannot see through.
func (e *estimator) estPath(p *pathExpr) (float64, bool) {
	if !p.absolute || p.start != nil {
		return 0, false
	}
	ctx := e.rootCtx()
	for _, s := range p.steps {
		ctx = e.estStep(ctx, s)
		if !ctx.known {
			return 0, false
		}
	}
	return ctx.rows, true
}

// predSel estimates a predicate's selectivity against the estimated
// candidate context. Relative structural paths (the exists-style
// predicate) estimate as expected-matches-per-candidate capped at 1;
// exists/boolean and empty/not calls over such paths follow; everything
// else gets the default.
func (e *estimator) predSel(ctx estCtx, pred expr) float64 {
	switch x := pred.(type) {
	case *pathExpr:
		if x.absolute || x.start != nil || len(x.steps) == 0 {
			return defaultPredSel
		}
		c := ctx
		for _, s := range x.steps {
			c = e.estStep(c, s)
			if !c.known {
				return defaultPredSel
			}
		}
		if !ctx.known || ctx.rows <= 0 {
			return defaultPredSel
		}
		return math.Min(1, c.rows/ctx.rows)
	case *callExpr:
		if len(x.args) == 1 {
			switch x.fn {
			case bExists, bBoolean:
				return e.predSel(ctx, x.args[0])
			case bEmpty, bNot:
				return 1 - e.predSel(ctx, x.args[0])
			}
		}
	}
	return defaultPredSel
}

// exprRows estimates the cardinality of an expression evaluated in an
// arbitrary context: literals, sequences and absolute structural paths.
func (e *estimator) exprRows(x expr) (float64, bool) {
	switch v := x.(type) {
	case *literalExpr:
		return float64(len(v.seq)), true
	case *seqExpr:
		total := 0.0
		for _, it := range v.items {
			r, ok := e.exprRows(it)
			if !ok {
				return 0, false
			}
			total += r
		}
		return total, true
	case *pathExpr:
		return e.estPath(v)
	}
	return 0, false
}

// ---- reorder gates ---------------------------------------------------------

// predInfallible reports (conservatively) that evaluating e over a node
// context can never raise an error: literal values, plain axis paths
// without hierarchy qualifiers or primary steps, boolean connectives of
// such, and the boolean builtins over such. Reordering infallible,
// position-independent predicates or bindings can then never change
// which error a query raises — there is none to raise.
func predInfallible(e expr) bool {
	switch x := e.(type) {
	case *literalExpr:
		return true
	case *orExpr:
		return predInfallible(x.a) && predInfallible(x.b)
	case *andExpr:
		return predInfallible(x.a) && predInfallible(x.b)
	case *pathExpr:
		if x.start != nil {
			return false
		}
		for _, s := range x.steps {
			if s.prim != nil || len(s.test.hiers) > 0 {
				return false
			}
			for _, pr := range s.preds {
				if !predInfallible(pr) {
					return false
				}
			}
		}
		return true
	case *callExpr:
		switch x.fn {
		case bExists, bEmpty, bNot, bBoolean:
			return len(x.args) == 1 && predInfallible(x.args[0])
		}
	case *cmpExpr:
		// string(.) against a string literal: both sides are single
		// strings, so neither the comparison nor its operands can fail.
		switch x.op {
		case "=", "!=", "eq", "ne":
			return isStringOfContext(x.a) && isStringLiteral(x.b)
		}
	}
	return false
}

func isStringOfContext(e expr) bool {
	call, ok := e.(*callExpr)
	if !ok || call.name != "string" || len(call.args) != 1 {
		return false
	}
	_, ok = call.args[0].(*contextItemExpr)
	return ok
}

func isStringLiteral(e expr) bool {
	lit, ok := e.(*literalExpr)
	if !ok {
		return false
	}
	_, ok = lit.v.(string)
	return ok
}

// referencesVars reports whether e reads any of the given variables,
// or any variable at all when names is nil.
func referencesVars(e expr, names map[string]bool) bool {
	if v, ok := e.(*varExpr); ok {
		return names == nil || names[v.name]
	}
	found := false
	visitChildren(e, func(ch expr) {
		if !found && referencesVars(ch, names) {
			found = true
		}
	})
	return found
}
