package xquery

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"mhxquery/internal/core"
	"mhxquery/internal/dom"
)

// This file lowers the structural tests that are asked only whether
// they are empty: per candidate run, to structural semi-joins; per node,
// to membership in a per-version survivor set, or to existence probes.
//
// A step predicate that is an or/and tree of relative one-step paths
// axis::name — axis one of ancestor, xancestor, xdescendant,
// overlapping, preceding-overlapping, following-overlapping — asks of
// each candidate only whether one target exists. Per candidate RUN,
// that is one merge sweep of the candidates' spans against the targets'
// spans (core.SemiJoin), O(candidates + targets) with no allocation per
// candidate. The lowered predicate (pSemiJoin) is one kind of stage of
// the predicate stage chain (chain, push.go): it sweeps when its input
// size is known and greater than 1 — the first predicate of an
// axis-step segment, an index-scan segment or a target run — and the
// sweep advances as candidates are pushed, so early exit stays early.
//
// The same test asked of one node at a time — a lone candidate, a
// predicate after another one, a filter on a variable ($x[S]), a where,
// if or exists condition (exists($x/axis::t) is $x[axis::t]) — depends
// only on the node and the document version. So it is answered from the
// node's survivor set: the nodes of its run (its hierarchy's name run,
// or the leaf layer) that pass the whole predicate, built in one sweep
// by the stage chain that filters semi-join targets (survivors) and
// found with a forward cursor (member). Query I.2's
// $leaf[ancestor::w and ancestor::dmg] and the join's
// where exists($w/overlapping::dmg) cost one lookup per tuple this way.
// A set is named by what it denotes — the run and the predicate's
// canonical text (canon) — so every query asking the same test of a
// version shares it. It lives in the evaluation's targets map and in
// the version's memo (core.Memo), which stores it the second time an
// evaluation asks for it; the first evaluation to ask probes per node.
// A root index scan under predicates that read only the candidate
// (candidateOnly, plan.go) is such a set too, and reads, sights and
// builds it the same way, its nodes pushed to the scan's consumer as
// they are read or pass; a build the consumer stops keeps nothing.
// Lowering decides which tests may take this route (memberSet): those
// with no hierarchy-qualified term. At run time it needs a version memo
// the evaluation may share (sharedMemo: not an overlay, a private
// version or an instrumented run) and a document element or leaf;
// everything else keeps the per-node probe.
//
// The per-node probe (pProbe) is a relative one-step path axis::test,
// starting at the context item or at a variable, lowered where only its
// truth value is used — a step or filter predicate, an and/or operand,
// an if condition, a where clause, a satisfies clause, the argument of
// exists/empty/not/boolean. It walks the axis in axis order
// (core.Document.FindAxis) and stops at the first node passing the test
// and the step's predicates, building no axis result. pSemiJoin's
// per-node form is built from the same probes, so a candidate the sweep
// leaves undecided is probed too. Contexts a probe does not cover —
// atomic items, an undefined focus, a variable not bound to exactly one
// node, constructed nodes — evaluate the path itself, and the probe
// tests candidates in axis order with the path's node test, so results
// and error points are the per-node engine's (XPTY0019 for an atomic
// context, MHXQ0001 at the first name-matched candidate under an
// unknown hierarchy). A term whose targets cannot be bound without
// raising — a hierarchy qualifier that does not resolve, the shared
// root under a filtered target — is probed for every candidate.
//
// A target step may carry predicates (axis::name[string(.) = 'x'],
// axis::name[xancestor::dmg …]) when they are position-independent and
// infallible: a probe evaluates them per candidate after the node test,
// in any order, with the same answer and no error to reorder: the
// probe's axis walk feeds the step's stage chain, and the first
// candidate the chain keeps ends the walk. The semi-join also needs
// them variable-free: their value then depends on the target alone, so
// the filtered targets are a survivor set like any other — the target
// name's run under the target predicates — built by the same stage
// chain once per (evaluation, document) and kept in the version's memo
// where the evaluation may share it.

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
		case core.AxisAncestor, core.AxisXAncestor, core.AxisXDescendant, core.AxisOverlapping,
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
// is used: as an existence probe when eligible, and with a membership
// test in survivor sets in front when it is a semi-join predicate of
// its subject (memberSet).
func (pn *planner) lowerTruth(e expr, parent *explainNode) pnode {
	p, ok := e.(*pathExpr)
	if !ok || !probeable(p) {
		set := pn.setEligible(e)
		// The operands of an and/or that answers from its own set need
		// none of theirs.
		outer := pn.noSet
		pn.noSet = outer || set
		n := pn.lower(e, parent)
		pn.noSet = outer
		if l, ok := n.(*pLogic); ok && set {
			l.set = pn.memberSet(e, l, pbase{id: pn.newOpID()})
		}
		return n
	}
	en, pb := pn.enode(parent, "exists-probe", p)
	probe := &pProbe{pbase: pb, path: pn.lowerPath(p, en).(*pPath)}
	if rel := (&pathExpr{steps: p.steps}); pn.setEligible(rel) {
		per := probe
		if p.start != nil {
			per = pn.termProbe(probe.path.ops[0].s) // tests the candidate, not $x
		}
		probe.set = pn.memberSet(rel, per, pbase{id: pn.newOpID()})
	}
	return probe
}

// setEligible reports whether the truth test e of its context item
// answers from survivor sets: a semi-join predicate with no
// hierarchy-qualified term, whose answer stays a per-node probe.
func (pn *planner) setEligible(e expr) bool {
	return !pn.noSet && semiJoinable(e) && !anyExpr(e, hierQualified)
}

func hierQualified(e expr) bool {
	p, ok := e.(*pathExpr)
	return ok && slices.ContainsFunc(p.steps, func(s *step) bool { return len(s.test.hiers) > 0 })
}

// memberSet makes the semi-join of predicate e lowered to per, the
// or/and tree of e's existence probes: its terms are the probes' steps
// and per answers the candidates neither its sweep nor its survivor
// sets decide.
func (pn *planner) memberSet(e expr, per pnode, pb pbase) *pSemiJoin {
	sj := &pSemiJoin{pbase: pb, perNode: per, key: predKey([]expr{e})}
	sj.self = []expr{sj}
	var terms func(e expr, n pnode) *sjShape
	terms = func(e expr, n pnode) *sjShape {
		switch x := e.(type) {
		case *orExpr:
			l := n.(*pLogic)
			return &sjShape{a: terms(x.a, l.a), b: terms(x.b, l.b)}
		case *andExpr:
			l := n.(*pLogic)
			return &sjShape{and: true, a: terms(x.a, l.a), b: terms(x.b, l.b)}
		}
		sj.terms = append(sj.terms, n.(*pProbe).path.ops[0].s)
		sj.keys = append(sj.keys, predKey(e.(*pathExpr).steps[0].preds))
		return &sjShape{term: len(sj.terms) - 1}
	}
	sj.shape = terms(e, per)
	return sj
}

// termProbe is the existence probe of step s from the context item,
// with no explain node.
func (pn *planner) termProbe(s *step) *pProbe {
	op := &pathOp{kind: opAxisStep, s: s, id: pn.newOpID()}
	return &pProbe{pbase: pbase{id: pn.newOpID()}, path: &pPath{pbase: pbase{id: pn.newOpID()}, ops: []*pathOp{op}}}
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
	// keys is, per term with target predicates, the canonical text of
	// those predicates, which names its filtered targets in memos.
	keys []string
	// key is the canonical text of the whole predicate, which names its
	// survivor sets (member), or "" when it has a hierarchy-qualified
	// term; self is the predicate as a one-stage chain.
	key  string
	self []expr
}

func (e *pSemiJoin) each(c *context, yield func(Item) bool) error {
	return pEach(e.perNode, c, yield)
}

// lowerPred lowers one step predicate, as a semi-join when eligible.
// Its per-node form is the or/and tree of its terms' probes, which have
// no explain nodes; terms with equal filtered targets share one lowered
// filter (EXPLAIN shows each as a target child of the semi-join).
func (pn *planner) lowerPred(pr expr, parent *explainNode) pnode {
	if !semiJoinable(pr) {
		return pn.lowerTruth(pr, parent)
	}
	en, pb := pn.enode(parent, "semi-join", pr)
	var src, lowered []*step // each term's AST step and plan copy
	var perNode func(e expr) pnode
	perNode = func(e expr) pnode {
		switch x := e.(type) {
		case *orExpr:
			return &pLogic{pbase: pbase{id: pn.newOpID()}, a: perNode(x.a), b: perNode(x.b)}
		case *andExpr:
			return &pLogic{pbase: pbase{id: pn.newOpID()}, and: true, a: perNode(x.a), b: perNode(x.b)}
		}
		s := e.(*pathExpr).steps[0]
		ts := &step{axis: s.axis, test: s.test}
		for k, prev := range src {
			if sameTargets(prev, s) {
				ts.preds = lowered[k].preds
				break
			}
		}
		if ts.preds == nil && len(s.preds) > 0 {
			g := pn.group(en, "target", s)
			for _, tp := range s.preds {
				ts.preds = append(ts.preds, pn.lowerPred(tp, g))
			}
		}
		src, lowered = append(src, s), append(lowered, ts)
		return pn.termProbe(ts)
	}
	sj := pn.memberSet(pr, perNode(pr), pb)
	if anyExpr(pr, hierQualified) {
		sj.key = ""
	}
	return sj
}

// sameTargets reports whether two target steps select the same
// elements: equal name tests and equal predicate trees.
func sameTargets(a, b *step) bool {
	return a.test.kind == b.test.kind && a.test.name == b.test.name &&
		slices.Equal(a.test.hiers, b.test.hiers) && reflect.DeepEqual(a.preds, b.preds)
}

// predKey is the canonical text of a predicate list (canonPreds).
func predKey(preds []expr) string {
	var b strings.Builder
	canonPreds(&b, preds)
	return b.String()
}

// canonPreds writes each predicate's canon in brackets.
func canonPreds(b *strings.Builder, preds []expr) {
	for _, pr := range preds {
		b.WriteByte('[')
		canon(b, pr)
		b.WriteByte(']')
	}
}

// canon writes the canonical text of e, an expression of the infallible
// predicate language (predInfallible), which semi-join predicates and
// their target predicates are: the expression printed in full — every
// step with its axis, test and predicates, literals quoted — so that
// two predicates have one text exactly when they are the same
// expression, whatever query they come from.
func canon(b *strings.Builder, e expr) {
	op := func(a expr, op string, c expr) {
		b.WriteByte('(')
		canon(b, a)
		b.WriteByte(' ')
		b.WriteString(op)
		b.WriteByte(' ')
		canon(b, c)
		b.WriteByte(')')
	}
	switch x := e.(type) {
	case *literalExpr:
		if s, ok := x.v.(string); ok {
			b.WriteString(strconv.Quote(s))
		} else {
			fmt.Fprint(b, x.v)
		}
	case *contextItemExpr:
		b.WriteByte('.')
	case *orExpr:
		op(x.a, "or", x.b)
	case *andExpr:
		op(x.a, "and", x.b)
	case *cmpExpr:
		op(x.a, x.op, x.b)
	case *callExpr:
		b.WriteString(x.name)
		b.WriteByte('(')
		for i, a := range x.args {
			if i > 0 {
				b.WriteByte(',')
			}
			canon(b, a)
		}
		b.WriteByte(')')
	case *pathExpr:
		for i, s := range x.steps {
			if i > 0 || x.absolute {
				b.WriteByte('/')
			}
			b.WriteString(s.axis.String())
			b.WriteString("::")
			b.WriteString(describeTest(&s.test))
			canonPreds(b, s.preds)
		}
	}
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

// sjKey identifies a survivor set of one document in the evaluation's
// targets map.
type sjKey struct {
	k core.MemoKey
	d *core.Document
}

// setKey names the survivor set of the elements with name symbol sym
// (0: the leaves) under the predicates whose canonical text is src.
func setKey(src string, sym int32) core.MemoKey {
	return core.MemoKey{Src: src, Sym: sym}
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
		runs, _, err := c.st.survivors(c, &r.targets[i], s.preds, d, b.nameSym, e.keys[i], false, nil)
		if err != nil {
			return err
		}
		for hi, run := range runs {
			if b.allows(hi) {
				sj.AddRun(d.Hiers[hi], run)
			}
		}
	}
	return nil
}

// survivors returns the survivor set of a run of d under preds: per
// hierarchy, the ascending ordinals of the elements with name symbol
// sym that pass them, or for sym 0 the leaf ordinals that do, as one
// run. The stage chain ch (nil: a new one) applies preds over each run
// as one segment of known size, so a semi-join among them sweeps. A set
// is taken from the evaluation's builds (st.targets) or d's version
// memo where the evaluation may share it, else built, kept for the
// evaluation and stored in the memo. With sighted set, it is built only
// when the memo sighted its key before (ok=false otherwise, and without
// a memo), so a one-off query builds none. A consumer yield is pushed
// the set's nodes in document order as they are read or pass; a build
// that fails or that yield stops keeps nothing.
func (st *evalState) survivors(c *context, ch *chain, preds []expr, d *core.Document, sym int32, src string, sighted bool, yield func(Item) bool) ([][]int32, bool, error) {
	key := setKey(src, sym)
	m := st.sharedMemo(d)
	if sighted && m == nil {
		return nil, false, nil
	}
	runs, ok := st.targets[sjKey{key, d}]
	if !ok && m != nil {
		runs, ok = m.Get(key)
	}
	if ok && yield != nil {
		for hi, run := range runs {
			for _, ord := range run {
				if err := st.checkCancel(); err != nil {
					return nil, false, err
				}
				if !yield(d.Hiers[hi].Nodes[ord]) {
					return nil, false, errStop
				}
			}
		}
	}
	if ok {
		return runs, true, nil
	}
	if sighted && !m.Seen(key) {
		return nil, false, nil
	}
	if ch == nil {
		ch = new(chain)
	}
	// sweep returns the ordinals of the nodes at(0…size-1) that pass.
	sweep := func(size int, at func(int) *dom.Node) ([]int32, error) {
		ch.out = ch.out[:0]
		if yield == nil {
			ch.out = slices.Grow(ch.out, size)
		}
		ch.begin(c, preds, size, yield)
		ch.keep = true
		for k := 0; k < size && ch.push(at(k)); k++ {
		}
		if err := ch.end(); err != nil {
			return nil, err
		}
		out := make([]int32, len(ch.out))
		for k, it := range ch.out {
			out[k] = int32(it.(*dom.Node).Ord)
		}
		return out, nil
	}
	var err error
	if sym == 0 {
		leaves := d.LeafLayer()
		runs = make([][]int32, 1)
		runs[0], err = sweep(len(leaves), func(k int) *dom.Node { return leaves[k] })
	} else {
		runs = make([][]int32, len(d.Hiers))
		for hi, h := range d.Hiers {
			if run := h.NameRun(sym); len(run) > 0 && err == nil {
				runs[hi], err = sweep(len(run), func(k int) *dom.Node { return h.Nodes[run[k]] })
			}
		}
	}
	if err != nil {
		return nil, false, err
	}
	if m != nil && st.doc == d {
		m.Put(key, runs)
	}
	if st.targets == nil {
		st.targets = make(map[sjKey][][]int32)
	}
	st.targets[sjKey{key, d}] = runs
	return runs, true, nil
}

// sjMember is a semi-join's per-evaluation membership state, kept in
// its operator slot: the survivor set of the run last asked about and a
// forward cursor into it.
type sjMember struct {
	d     *core.Document
	sym   int32
	runs  [][]int32
	i     int
	asked bool // the memo sighted the key of (d, sym) in this evaluation, or the set is being built
}

// member answers the predicate for node n from the survivor set of n's
// run — its hierarchy's elements of its name, or the leaves — or
// reports sjUndecided when n or the evaluation is outside the route
// (see the file comment) or the set is not built yet: the first
// evaluation to ask for a set on a version only sights it.
func (e *pSemiJoin) member(c *context, n *dom.Node) (sjAnswer, error) {
	st := c.st
	if e.key == "" || (n.Kind != dom.Element && n.Kind != dom.Leaf) {
		return sjUndecided, nil
	}
	d := st.docFor(n)
	if n == d.Root || st.sharedMemo(d) == nil {
		return sjUndecided, nil
	}
	if _, owned := d.OrdinalOf(n); !owned {
		return sjUndecided, nil
	}
	sym, hi := n.NameSym, n.HierIndex
	if n.Kind == dom.Leaf {
		sym, hi = 0, 0
	} else if sym == 0 {
		return sjUndecided, nil // sym 0 names the leaves' set
	}
	cell := st.slot(e.id)
	ms, _ := (*cell).(*sjMember)
	if ms == nil {
		ms = new(sjMember)
		*cell = ms
	}
	if ms.d != d || ms.sym != sym {
		ms.d, ms.sym, ms.runs, ms.asked = d, sym, nil, false
	}
	if ms.runs == nil {
		if ms.asked {
			return sjUndecided, nil
		}
		// While the set is built, its run's lone segments (a run of one
		// node) answer per node.
		ms.asked = true
		runs, ok, err := st.survivors(c, nil, e.self, d, sym, e.key, true, nil)
		if err != nil {
			return sjUndecided, err
		}
		ms.runs, ms.i, ms.asked = runs, 0, !ok
		if !ok {
			return sjUndecided, nil
		}
	}
	// The forward cursor: i is the first survivor at or after the last
	// node asked about. Nodes asked in document order step it forward,
	// one behind it searches from the start.
	run, ord, i := ms.runs[hi], int32(n.Ord), ms.i
	if i > len(run) || i > 0 && run[i-1] >= ord {
		i = 0
	}
	if i < len(run) && run[i] < ord {
		if i+1 < len(run) && run[i+1] >= ord {
			i++
		} else {
			k, _ := slices.BinarySearch(run[i:], ord)
			i += k
		}
	}
	ms.i = i
	if i < len(run) && run[i] == ord {
		return sjYes, nil
	}
	return sjNo, nil
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

// sjRun is a semi-join stage's state in one stage chain: the sweep,
// which stays bound to its document's targets from segment to segment
// (it seeks when a segment starts behind it), and the stage chains of
// its terms' target predicates.
type sjRun struct {
	e       *pSemiJoin
	sw      sjSweep
	seg     *core.Document // the segment's document, when it sweeps
	bound   *core.Document // the document whose targets sw holds
	targets []chain
}

// start prepares the stage for semi-join e over a segment of size
// candidates (0: not known) in document d (nil: atomic candidates): a
// sweep when it has more than one candidate, per-node answers
// otherwise.
func (r *sjRun) start(c *context, e *pSemiJoin, d *core.Document, size int) {
	if r.e != e {
		*r = sjRun{e: e}
	}
	if ex := c.st.explain; ex != nil {
		ex[e.id].calls++
	}
	r.seg = nil
	if size > 1 {
		r.seg = d
	}
}

// keep answers the predicate for the segment's next candidate it, at
// the position of the focus c2: by the sweep, advancing it (its targets
// loaded at its document's first candidate), or from the candidate's
// survivor set, else by the per-node predicate, with it as the focus
// item.
func (r *sjRun) keep(c2 *context, it Item) (bool, error) {
	st := c2.st
	var start time.Time
	if st.timed {
		start = time.Now()
	}
	ans := sjUndecided
	var err error
	if n, ok := it.(*dom.Node); ok {
		if r.seg == nil {
			ans, err = r.e.member(c2, n)
		} else {
			if r.bound != r.seg {
				r.bound, err = r.seg, r.bind(c2, r.seg)
			}
			if err == nil {
				ans = r.sw.decide(r.e.shape, n)
			}
		}
	}
	keep := ans == sjYes
	if ans == sjUndecided && err == nil {
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
	// set, when the step is a semi-join predicate of the start node,
	// answers from that node's survivor set before any walk (member).
	set *pSemiJoin
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
	if e.set != nil {
		if ans, err := e.set.member(c, n); err != nil || ans != sjUndecided {
			return ans == sjYes, err
		}
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
