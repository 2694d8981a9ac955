package xquery

import (
	"reflect"
	"slices"
	"time"

	"mhxquery/internal/core"
	"mhxquery/internal/dom"
)

// This file lowers the structural tests that are asked only whether
// they are empty: per candidate run, to structural semi-joins; per
// node, to existence probes.
//
// A step predicate that is an or/and tree of relative one-step paths
// axis::name — axis one of xancestor, xdescendant, overlapping,
// preceding-overlapping, following-overlapping — asks of each candidate
// only whether one target exists. Per candidate RUN, that is one merge
// sweep of the candidates' spans against the targets' spans
// (core.SemiJoin), O(candidates + targets) with no allocation per
// candidate. The lowered predicate (pSemiJoin) is one kind of stage of
// the predicate stage chain (chain, push.go): it sweeps when its input
// size is known and greater than 1 — the first predicate of an
// axis-step segment, an index-scan segment or a target run — and the
// sweep advances as candidates are pushed, so early exit stays early.
//
// Everything that sees one node at a time takes an existence probe
// (pProbe): a relative one-step path axis::test, starting at the
// context item or at a variable, lowered where only its truth value is
// used — a step or filter predicate, an and/or operand, an if
// condition, a where clause, a satisfies clause, the argument of
// exists/empty/not/boolean. The probe walks the axis in axis order
// (core.Document.FindAxis) and stops at the first node passing the
// test and the step's predicates, building no axis result: Query I.2's
// $leaf[ancestor::w and ancestor::dmg] and the join's
// where exists($w/overlapping::dmg). pSemiJoin's per-node form is built
// from the same probes, so a lone candidate, a candidate of a stage
// whose input size is not known (a predicate after another one) and a
// candidate the sweep leaves undecided are probed too. Contexts a probe
// does not cover — atomic items, an undefined focus, a variable not
// bound to exactly one node, constructed nodes — evaluate the path
// itself, and the probe tests candidates in axis order with the path's
// node test, so results and error points are the per-node engine's
// (XPTY0019 for an atomic context, MHXQ0001 at the first name-matched
// candidate under an unknown hierarchy). A term whose targets cannot
// be bound without raising — a hierarchy qualifier that does not
// resolve, the shared root under a filtered target — is probed for
// every candidate.
//
// A target step may carry predicates (axis::name[string(.) = 'x'],
// axis::name[xancestor::dmg …]) when they are position-independent and
// infallible: a probe evaluates them per candidate after the node test,
// in any order, with the same answer and no error to reorder: the
// probe's axis walk feeds the step's stage chain, and the first
// candidate the chain keeps ends the walk. The semi-join also needs
// them variable-free: their value then depends on the target alone, so
// a stage chain runs them once over the target runs, per (evaluation,
// document) — themselves a semi-join where eligible — and the surviving
// ordinals are memoized in evalState for the rest of the evaluation,
// and in the document version's memo (core.Memo) where the evaluation
// may share it.

// semiJoinable reports whether a step predicate lowers to a semi-join.
func semiJoinable(e expr) bool {
	switch x := e.(type) {
	case *orExpr:
		return semiJoinable(x.a) && semiJoinable(x.b)
	case *andExpr:
		return semiJoinable(x.a) && semiJoinable(x.b)
	case *pathExpr:
		if x.absolute || x.start != nil || len(x.steps) != 1 {
			return false
		}
		s := x.steps[0]
		switch s.axis {
		case core.AxisXAncestor, core.AxisXDescendant, core.AxisOverlapping,
			core.AxisPrecedingOverlapping, core.AxisFollowingOverlapping:
		default:
			return false
		}
		if s.test.kind != testName || !probeStep(s) {
			return false
		}
		for _, pr := range s.preds {
			if anyExpr(pr, isVarRef) {
				return false
			}
		}
		return true
	}
	return false
}

// probeable reports whether a path whose truth value alone is used
// lowers to an existence probe: a relative one-step path from the
// context item or a variable.
func probeable(p *pathExpr) bool {
	if p.absolute || len(p.steps) != 1 {
		return false
	}
	if _, isVar := p.start.(*varExpr); p.start != nil && !isVar {
		return false
	}
	return probeStep(p.steps[0])
}

// probeStep reports whether an axis step's emptiness can be decided at
// its first match: its predicates are position-independent and
// infallible, so no later candidate can change the answer or raise.
// Descendant name steps stay index scans, whose pushed segments
// already stop at the first node.
func probeStep(s *step) bool {
	if s.prim != nil || indexableStep(s) || !fusablePreds(s.preds) {
		return false
	}
	for _, pr := range s.preds {
		if !predInfallible(pr) {
			return false
		}
	}
	return true
}

// predInfallible reports (conservatively) that evaluating e over a node
// context can never raise an error: literal values, plain axis paths
// without hierarchy qualifiers or primary steps, boolean connectives of
// such, and the boolean builtins over such. A probe or semi-join may
// then test an infallible, position-independent predicate on any
// candidate, in any order, without changing which error a query raises
// — there is none to raise.
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

func isVarRef(e expr) bool {
	_, ok := e.(*varExpr)
	return ok
}

// lowerTruth lowers an expression whose effective boolean value alone
// is used: as an existence probe when eligible.
func (pn *planner) lowerTruth(e expr, parent *explainNode) pnode {
	p, ok := e.(*pathExpr)
	if !ok || !probeable(p) {
		return pn.lower(e, parent)
	}
	en, pb := pn.enode(parent, "exists-probe", p)
	return pn.newProbe(pb, pn.lowerPath(p, en).(*pPath))
}

func (pn *planner) newProbe(pb pbase, path *pPath) *pProbe {
	return &pProbe{pbase: pb, path: path}
}

// sjShape is the boolean shape of a semi-join predicate over its terms:
// a leaf names a term, an inner node joins two shapes by and/or.
type sjShape struct {
	and  bool
	a, b *sjShape
	term int
}

// pSemiJoin is a lowered semi-join predicate. Each term is a plan copy
// of its target step (axis, name test, lowered target predicates);
// perNode is the predicate lowered for one-candidate evaluation: the
// or/and tree of the terms' existence probes.
type pSemiJoin struct {
	pbase
	shape   *sjShape
	terms   []*step
	perNode pnode
	// memo is, per term with target predicates, the plan slot that
	// names its filtered targets in memos; terms with equal targets
	// share it.
	memo []int
}

func (e *pSemiJoin) each(c *context, yield func(Item) bool) error {
	return pEach(e.perNode, c, yield)
}

// lowerPred lowers one step predicate, as a semi-join when eligible.
func (pn *planner) lowerPred(pr expr, parent *explainNode) pnode {
	if !semiJoinable(pr) {
		return pn.lowerTruth(pr, parent)
	}
	en, pb := pn.enode(parent, "semi-join", pr)
	sj := &pSemiJoin{pbase: pb}
	var src []*step // the AST target step of each term
	// lowerTerms records e's terms in sj and returns its shape and its
	// per-node form: the or/and tree of one-step relative paths that
	// lowerPath would build, sharing the term steps.
	var lowerTerms func(e expr) (*sjShape, pnode)
	lowerTerms = func(e expr) (*sjShape, pnode) {
		switch x := e.(type) {
		case *orExpr:
			a, pa := lowerTerms(x.a)
			b, pb := lowerTerms(x.b)
			return &sjShape{a: a, b: b}, &pLogic{pbase: pbase{id: pn.newOpID()}, a: pa, b: pb}
		case *andExpr:
			a, pa := lowerTerms(x.a)
			b, pb := lowerTerms(x.b)
			return &sjShape{and: true, a: a, b: b}, &pLogic{pbase: pbase{id: pn.newOpID()}, and: true, a: pa, b: pb}
		}
		s := e.(*pathExpr).steps[0]
		ts := &step{axis: s.axis, test: s.test}
		memo := -1
		if len(s.preds) > 0 {
			// Terms whose filtered targets are equal share one lowered
			// filter, and with it one memoized target set.
			for k, prev := range src {
				if sameTargets(prev, s) {
					ts.preds, memo = sj.terms[k].preds, sj.memo[k]
					break
				}
			}
			if ts.preds == nil {
				g := pn.group(en, "target", s)
				for _, tp := range s.preds {
					ts.preds = append(ts.preds, pn.lowerPred(tp, g))
				}
				memo = pn.newOpID()
			}
		}
		src = append(src, s)
		sj.terms = append(sj.terms, ts)
		sj.memo = append(sj.memo, memo)
		path := &pPath{pbase: pbase{id: pn.newOpID()}, ops: []*pathOp{{kind: opAxisStep, s: ts, id: pn.newOpID()}}}
		return &sjShape{term: len(sj.terms) - 1}, pn.newProbe(pbase{id: pn.newOpID()}, path)
	}
	sj.shape, sj.perNode = lowerTerms(pr)
	return sj
}

// sameTargets reports whether two target steps select the same
// elements: equal name tests and equal predicate trees.
func sameTargets(a, b *step) bool {
	return a.test.kind == b.test.kind && a.test.name == b.test.name &&
		slices.Equal(a.test.hiers, b.test.hiers) && reflect.DeepEqual(a.preds, b.preds)
}

// describeSemiJoin renders the predicate for EXPLAIN; and binds tighter
// than or, so only an or operand of and needs parentheses.
func describeSemiJoin(pr expr) string {
	switch x := pr.(type) {
	case *orExpr:
		return describeSemiJoin(x.a) + " or " + describeSemiJoin(x.b)
	case *andExpr:
		operand := func(e expr) string {
			if _, isOr := e.(*orExpr); isOr {
				return "(" + describeSemiJoin(e) + ")"
			}
			return describeSemiJoin(e)
		}
		return operand(x.a) + " and " + operand(x.b)
	}
	return describeStep(pr.(*pathExpr).steps[0])
}

// ---- execution -------------------------------------------------------------

// sjAnswer is a three-valued answer for one candidate.
type sjAnswer int8

const (
	sjNo sjAnswer = iota
	sjYes
	sjUndecided
)

// sjSweep is one semi-join's state over the candidates of one document:
// a core sweep per term, or perNode when the term's targets cannot be
// bound without raising.
type sjSweep struct {
	terms []sjTermState
}

type sjTermState struct {
	perNode bool
	sj      core.SemiJoin
}

// sjKey identifies a memoized filtered target set: the plan slot of the
// target filter (shared by the terms with equal targets) and the
// document.
type sjKey struct {
	op int
	d  *core.Document
}

// bind resolves every term against d and loads its targets: the name
// runs of the hierarchies the test allows, or their filtered subsets.
func (r *sjRun) bind(c *context, d *core.Document) error {
	sw, e := &r.sw, r.e
	if n := len(e.terms); cap(sw.terms) < n {
		sw.terms = make([]sjTermState, n)
	} else {
		sw.terms = sw.terms[:n]
	}
	for i, s := range e.terms {
		ts := &sw.terms[i]
		sj := &ts.sj
		sj.Reset(d, s.axis)
		var b resolvedTest
		b.init(d, s)
		// A name no element bears leaves no targets, and no candidate
		// then reaches the hierarchy check that could raise.
		rootTarget := b.nameSym != 0 && d.Root.NameSym == b.nameSym
		ts.perNode = b.nameSym != 0 && (b.hiers() != nil || rootTarget && len(s.preds) > 0)
		if ts.perNode || b.nameSym == 0 {
			continue
		}
		if rootTarget {
			sj.AddRoot()
		}
		if len(s.preds) == 0 {
			for hi, h := range d.Hiers {
				if b.allows(hi) {
					sj.AddRun(h, h.NameRun(b.nameSym))
				}
			}
			continue
		}
		if r.targets == nil {
			r.targets = make([]chain, len(e.terms))
		}
		runs, err := c.st.filteredTargets(c, &r.targets[i], s, d, &b, e.memo[i])
		if err != nil {
			return err
		}
		for hi, run := range runs {
			sj.AddRun(d.Hiers[hi], run)
		}
	}
	return nil
}

// filteredTargets returns, per hierarchy of d, the ordinals of the
// target step's name matches that pass its predicates, which the stage
// chain ch applies once per (plan slot memo, document) in this
// evaluation unless d's version memo holds the answer. The set is
// always computed whole, so the version memo, where the evaluation may
// share it, always gets it.
func (st *evalState) filteredTargets(c *context, ch *chain, s *step, d *core.Document, b *resolvedTest, memo int) ([][]int32, error) {
	key := sjKey{memo, d}
	runs, ok := st.targets[key]
	if ok {
		return runs, nil
	}
	m := st.sharedMemo(d)
	if m != nil {
		runs, ok = m.Get(st.plan.memoKey(memo))
	}
	if !ok {
		runs = make([][]int32, len(d.Hiers))
		for hi, h := range d.Hiers {
			run := h.NameRun(b.nameSym)
			if !b.allows(hi) || len(run) == 0 {
				continue
			}
			ch.out = slices.Grow(ch.out[:0], len(run))
			ch.begin(c, s.preds, len(run), nil)
			for _, ord := range run {
				if !ch.push(h.Nodes[ord]) {
					break
				}
			}
			if err := ch.end(); err != nil {
				return nil, err
			}
			out := make([]int32, len(ch.out))
			for k, it := range ch.out {
				out[k] = int32(it.(*dom.Node).Ord)
			}
			runs[hi] = out
		}
		if m != nil {
			m.Put(st.plan.memoKey(memo), runs)
		}
	}
	if st.targets == nil {
		st.targets = make(map[sjKey][][]int32)
	}
	st.targets[key] = runs
	return runs, nil
}

// decide answers the shape for candidate n with the per-node
// short-circuit order: or stops at the first yes, and at the first
// undecided term, which the per-node expression must then evaluate (it
// might raise); and likewise stops at the first no.
func (sw *sjSweep) decide(x *sjShape, n *dom.Node) sjAnswer {
	if x.a == nil {
		ts := &sw.terms[x.term]
		if ts.perNode {
			return sjUndecided
		}
		found, ok := ts.sj.Exists(n)
		switch {
		case !ok:
			return sjUndecided
		case found:
			return sjYes
		}
		return sjNo
	}
	a := sw.decide(x.a, n)
	if (x.and && a != sjYes) || (!x.and && a != sjNo) {
		return a
	}
	return sw.decide(x.b, n)
}

// sjRun is a semi-join's per-evaluation state (kept in its operator
// slot): the sweep over the current segment, if any, and the stage
// chains of its terms' target predicates.
type sjRun struct {
	e       *pSemiJoin
	sw      sjSweep
	swept   bool
	targets []chain
}

// start prepares a segment of size candidates (0: not known) in
// document d (nil: atomic candidates): a sweep when it has more than
// one candidate, per-node evaluation otherwise.
func (e *pSemiJoin) start(c *context, d *core.Document, size int) (*sjRun, error) {
	cell := c.st.slot(e.id)
	r, _ := (*cell).(*sjRun)
	if r == nil {
		r = &sjRun{e: e}
		*cell = r
	}
	if ex := c.st.explain; ex != nil {
		ex[e.id].calls++
	}
	r.swept = size > 1 && d != nil
	if r.swept {
		return r, r.bind(c, d)
	}
	return r, nil
}

// keep answers the predicate for the segment's next candidate it, at
// the position of the focus c2: the sweep's answer, advancing it, or
// the per-node predicate's, with it as the focus item, for what the
// sweep leaves undecided.
func (r *sjRun) keep(c2 *context, it Item) (bool, error) {
	st := c2.st
	var start time.Time
	if st.timed {
		start = time.Now()
	}
	ans := sjUndecided
	if n, ok := it.(*dom.Node); ok && r.swept {
		ans = r.sw.decide(r.e.shape, n)
	}
	keep := ans == sjYes
	var err error
	if ans == sjUndecided {
		c2.item = it
		keep, err = pEbv(r.e.perNode, c2)
	}
	if ex := st.explain; ex != nil {
		ex[r.e.id].in++
		if keep {
			ex[r.e.id].out++
		}
		if st.timed {
			ex[r.e.id].nanos += int64(time.Since(start))
		}
	}
	return keep, err
}

// ---- existence probes ------------------------------------------------------

// pProbe is a one-step path lowered for its truth value (EXPLAIN
// exists-probe). Its explain slot counts probes (calls) and the probes
// that found a node (out_rows); the probed path below it counts only
// the evaluations delegated to it.
type pProbe struct {
	pbase
	// path is the probed path: its start (nil or a variable) and its one
	// axis-step operator, whose lowered step the probe tests candidates
	// with; it also evaluates the contexts the probe does not cover.
	path *pPath
}

// pid hides the probe's slot from pEach: truth does its own accounting,
// so a probe counts once however it is reached.
func (e *pProbe) pid() int { return -1 }

// each pushes the truth value, which every truth-value position reads
// exactly as it reads the path's nodes.
func (e *pProbe) each(c *context, yield func(Item) bool) error {
	b, err := e.truth(c)
	if err != nil {
		return err
	}
	return push1(b, yield)
}

// truth reports whether the path is non-empty.
func (e *pProbe) truth(c *context) (bool, error) {
	st := c.st
	ex := st.explain
	if ex == nil {
		return e.probe(c)
	}
	var start time.Time
	if st.timed {
		start = time.Now()
	}
	found, err := e.probe(c)
	ex[e.id].calls++
	if found {
		ex[e.id].out++
	}
	if st.timed {
		ex[e.id].nanos += int64(time.Since(start))
	}
	return found, err
}

func (e *pProbe) probe(c *context) (bool, error) {
	item := c.item
	if e.path.start != nil {
		v, err := pEval(e.path.start, c)
		if err != nil {
			return false, err
		}
		if len(v) != 1 {
			return e.delegate(c)
		}
		item = v[0]
	}
	n, ok := item.(*dom.Node)
	if !ok {
		return e.delegate(c)
	}
	st := c.st
	d := st.docFor(n)
	owner := n
	if n.Kind == dom.Attribute && n.Parent != nil {
		owner = n.Parent
	}
	if _, owned := d.OrdinalOf(owner); !owned {
		return e.delegate(c) // constructed tree
	}
	s := e.path.ops[0].s
	ps := st.probeState(e.id, d, s)
	rt := &ps.rt
	var name int32
	if s.test.kind == testName {
		if rt.nameSym == 0 {
			return false, nil // no node of this document bears the name
		}
		name = rt.nameSym
	}
	// The first candidate passing the node test and the stage chain
	// stops the walk: the chain's consumer stops at once. The
	// predicates are position-independent, so the chain needs no size.
	ps.ch.begin(c, s.preds, 0, stopFirst)
	var err error
	found, buf := d.FindAxis(ps.buf, s.axis, n, s.test.candidates(), name, func(m *dom.Node) bool {
		ok, merr := rt.match(m)
		if merr != nil {
			err = merr
			return true
		}
		return ok && !ps.ch.push(m)
	})
	ps.buf = buf
	if err == nil && ps.ch.err != errStop {
		err = ps.ch.err
	}
	return found && err == nil, err
}

// stopFirst is the consumer that stops at the first item.
func stopFirst(Item) bool { return false }

// delegate answers through the probed path itself.
func (e *pProbe) delegate(c *context) (bool, error) {
	return pExists(e.path, c)
}

// probeState is one probe's per-evaluation state: its node test
// resolved against the document it last ran on, and the scratch buffer
// of the axes FindAxis gathers. A probe's predicates are its own
// subexpressions, so no evaluation re-enters a probe while it runs and
// its buffer is never reused while in use.
type probeState struct {
	rt  resolvedTest
	buf []*dom.Node
	ch  chain
}

// probeState returns probe id's state with its node test resolved
// against d, reusing the binding while the document stays the same.
func (st *evalState) probeState(id int, d *core.Document, s *step) *probeState {
	cell := st.slot(id)
	ps, _ := (*cell).(*probeState)
	if ps == nil {
		ps = new(probeState)
		*cell = ps
	}
	if ps.rt.doc != d {
		ps.rt.init(d, s)
	}
	return ps
}
