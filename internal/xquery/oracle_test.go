package xquery

import (
	"math"
	"sort"
	"strings"

	"mhxquery/internal/core"
	"mhxquery/internal/dom"
)

// This file is the reference interpreter the engine is
// differential-tested against: recursive eval methods that define the
// semantics of every expression kind directly over the syntax tree,
// with no physical plan, the reference step evaluator (evalStepRef)
// that filters every axis candidate with matchTest and restores
// document order with a full comparison sort after each step, and the
// literal predicate rule (applyPredicates). It evaluates its own
// operands and shares no predicate code with the engine's stage chain.
// Tests reach it through oracleEval.

// oracleEval evaluates q's syntax tree against d with externally bound
// variables and an optional resolver, the way Query.EvalWithResolver
// does through the plan.
func oracleEval(q *Query, d *core.Document, vars map[string]Seq, r Resolver) (Seq, error) {
	c := &context{st: &evalState{doc: d, resolver: r}, item: d.Root, pos: 1, size: 1}
	for name, val := range vars {
		c = c.bind(name, val)
	}
	return oeval(c, q.body)
}

// oracleExpr is a syntax-tree expression the reference interpreter
// evaluates.
type oracleExpr interface {
	eval(c *context) (Seq, error)
}

// oeval evaluates a syntax-tree expression.
func oeval(c *context, e expr) (Seq, error) { return e.(oracleExpr).eval(c) }

// oracleNumber evaluates an operand to a single number; empty reports
// the empty sequence.
func oracleNumber(c *context, e expr, what string) (f float64, empty bool, err error) {
	v, err := oeval(c, e)
	switch {
	case err != nil:
		return 0, false, err
	case len(v) == 0:
		return 0, true, nil
	case len(v) == 1:
		return toNumber(c.atomize(v[0])), false, nil
	}
	return 0, false, errf("XPTY0004", "%s operand is a sequence of more than one item", what)
}

func (e *literalExpr) eval(*context) (Seq, error) { return e.seq, nil }

func (e *rawTextExpr) eval(*context) (Seq, error) { return singleton(e.s), nil }

func (e *varExpr) eval(c *context) (Seq, error) {
	v, ok := c.lookup(e.name)
	if !ok {
		return nil, errf("XPST0008", "undefined variable $%s", e.name)
	}
	return v, nil
}

func (e *contextItemExpr) eval(c *context) (Seq, error) {
	if c.item == nil {
		return nil, errf("XPDY0002", "context item is undefined")
	}
	return singleton(c.item), nil
}

func (e *rootExpr) eval(c *context) (Seq, error) {
	return singleton(c.st.rootFor(c.item)), nil
}

func (e *seqExpr) eval(c *context) (Seq, error) {
	var out Seq
	for _, it := range e.items {
		v, err := oeval(c, it)
		if err != nil {
			return nil, err
		}
		out = append(out, v...)
	}
	return out, nil
}

func (e *rangeExpr) eval(c *context) (Seq, error) {
	lo, empty, err := oracleNumber(c, e.lo, "range")
	if err != nil || empty {
		return nil, err
	}
	hi, empty, err := oracleNumber(c, e.hi, "range")
	if err != nil || empty {
		return nil, err
	}
	return rangeSeq(c, lo, hi)
}

func (e *orExpr) eval(c *context) (Seq, error) {
	va, err := oeval(c, e.a)
	if err != nil {
		return nil, err
	}
	ba, err := ebv(va)
	if err != nil {
		return nil, err
	}
	if ba {
		return seqTrue, nil
	}
	vb, err := oeval(c, e.b)
	if err != nil {
		return nil, err
	}
	bb, err := ebv(vb)
	return singletonBool(bb), err
}

func (e *andExpr) eval(c *context) (Seq, error) {
	va, err := oeval(c, e.a)
	if err != nil {
		return nil, err
	}
	ba, err := ebv(va)
	if err != nil {
		return nil, err
	}
	if !ba {
		return seqFalse, nil
	}
	vb, err := oeval(c, e.b)
	if err != nil {
		return nil, err
	}
	bb, err := ebv(vb)
	return singletonBool(bb), err
}

func (e *cmpExpr) eval(c *context) (Seq, error) {
	va, err := oeval(c, e.a)
	if err != nil {
		return nil, err
	}
	vb, err := oeval(c, e.b)
	if err != nil {
		return nil, err
	}
	return evalCmp(c, e.op, e.kind, va, vb)
}

func (e *arithExpr) eval(c *context) (Seq, error) {
	x, empty, err := oracleNumber(c, e.a, "arithmetic")
	if err != nil || empty {
		return nil, err
	}
	y, empty, err := oracleNumber(c, e.b, "arithmetic")
	if err != nil || empty {
		return nil, err
	}
	v, err := evalArith(e.op, x, y)
	if err != nil {
		return nil, err
	}
	return singleton(v), nil
}

func (e *unaryExpr) eval(c *context) (Seq, error) {
	x, empty, err := oracleNumber(c, e.x, "unary minus")
	if err != nil || empty {
		return nil, err
	}
	return singleton(-x), nil
}

func (e *unionExpr) eval(c *context) (Seq, error) {
	va, err := oeval(c, e.a)
	if err != nil {
		return nil, err
	}
	vb, err := oeval(c, e.b)
	if err != nil {
		return nil, err
	}
	return evalUnion(va, vb)
}

func (e *intersectExpr) eval(c *context) (Seq, error) {
	va, err := oeval(c, e.a)
	if err != nil {
		return nil, err
	}
	vb, err := oeval(c, e.b)
	if err != nil {
		return nil, err
	}
	return evalIntersect(va, vb, e.except)
}

func (e *ifExpr) eval(c *context) (Seq, error) {
	v, err := oeval(c, e.cond)
	if err != nil {
		return nil, err
	}
	b, err := ebv(v)
	if err != nil {
		return nil, err
	}
	if b {
		return oeval(c, e.then)
	}
	return oeval(c, e.els)
}

func (q *quantExpr) eval(c *context) (Seq, error) {
	b, err := q.walk(c, 0)
	if err != nil {
		return nil, err
	}
	return singletonBool(b), nil
}

func (q *quantExpr) walk(c *context, i int) (bool, error) {
	if i == len(q.names) {
		v, err := oeval(c, q.sat)
		if err != nil {
			return false, err
		}
		return ebv(v)
	}
	src, err := oeval(c, q.srcs[i])
	if err != nil {
		return false, err
	}
	for _, it := range src {
		b, err := q.walk(c.bind(q.names[i], singleton(it)), i+1)
		if err != nil {
			return false, err
		}
		if q.every && !b {
			return false, nil
		}
		if !q.every && b {
			return true, nil
		}
	}
	return q.every, nil
}

func (f *flworExpr) eval(c *context) (Seq, error) {
	if len(f.order) == 0 {
		var out Seq
		err := f.run(c, 0, func(c2 *context) error {
			v, err := oeval(c2, f.ret)
			if err != nil {
				return err
			}
			out = append(out, v...)
			return nil
		})
		return out, err
	}
	type tup struct {
		c    *context
		keys []Seq
	}
	var tups []tup
	err := f.run(c, 0, func(c2 *context) error {
		keys := make([]Seq, len(f.order))
		for i, o := range f.order {
			v, err := oeval(c2, o.key)
			if err != nil {
				return err
			}
			keys[i] = c2.atomizeSeq(v)
		}
		tups = append(tups, tup{c: c2, keys: keys})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(tups, func(i, j int) bool {
		for k, o := range f.order {
			cres, ok := compareOrderKeys(o, tups[i].keys[k], tups[j].keys[k])
			if !ok || cres == 0 {
				continue
			}
			if o.descending {
				return cres > 0
			}
			return cres < 0
		}
		return false
	})
	var out Seq
	for _, t := range tups {
		v, err := oeval(t.c, f.ret)
		if err != nil {
			return nil, err
		}
		out = append(out, v...)
	}
	return out, nil
}

func (f *flworExpr) run(c *context, idx int, emit func(*context) error) error {
	if idx == len(f.clauses) {
		return emit(c)
	}
	cl := f.clauses[idx]
	switch cl.kind {
	case clauseLet:
		v, err := oeval(c, cl.src)
		if err != nil {
			return err
		}
		return f.run(c.bind(cl.name, v), idx+1, emit)
	case clauseWhere:
		v, err := oeval(c, cl.src)
		if err != nil {
			return err
		}
		b, err := ebv(v)
		if err != nil {
			return err
		}
		if !b {
			return nil
		}
		return f.run(c, idx+1, emit)
	}
	// for clause
	v, err := oeval(c, cl.src)
	if err != nil {
		return err
	}
	for i, it := range v {
		c2 := c.bind(cl.name, singleton(it))
		if cl.posName != "" {
			c2 = c2.bind(cl.posName, singleton(float64(i+1)))
		}
		if err := f.run(c2, idx+1, emit); err != nil {
			return err
		}
	}
	return nil
}

func (e *callExpr) eval(c *context) (Seq, error) {
	if len(e.args) == 0 { // position(), last(), true(), …: no arg slice
		return e.fn.fn(c, nil)
	}
	args := make([]Seq, len(e.args))
	for i, a := range e.args {
		v, err := oeval(c, a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return e.fn.fn(c, args)
}

func (e *filterExpr) eval(c *context) (Seq, error) {
	v, err := oeval(c, e.base)
	if err != nil {
		return nil, err
	}
	return applyPredicates(c, v, e.preds)
}

func (p *pathExpr) eval(c *context) (Seq, error) {
	var cur Seq
	switch {
	case p.start != nil:
		v, err := oeval(c, p.start)
		if err != nil {
			return nil, err
		}
		cur = v
	case p.absolute:
		cur = Seq{c.st.rootFor(c.item)}
	default:
		if c.item == nil {
			return nil, errf("XPDY0002", "context item undefined at start of relative path")
		}
		cur = Seq{c.item}
	}
	for si, s := range p.steps {
		var err error
		if s.prim != nil {
			cur, err = oraclePrimStep(c, cur, s.prim, si == len(p.steps)-1)
		} else {
			cur, err = evalStepRef(c, cur, s)
		}
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// evalStepRef is the reference axis-step evaluator: filter every
// candidate with matchTest, apply predicates, and restore document order
// with a full comparison sort after the step. It is the semantic oracle
// the pipeline (evalStep) and the pushed path steps are
// differential-tested against.
func evalStepRef(c *context, cur Seq, s *step) (Seq, error) {
	var out Seq
	for _, it := range cur {
		n, ok := it.(*dom.Node)
		if !ok {
			return nil, errf("XPTY0019", "%s:: step applied to an atomic value", s.axis)
		}
		nodes := c.st.docFor(n).Eval(s.axis, n)
		filtered := make(Seq, 0, len(nodes))
		for _, m := range nodes {
			match, err := matchTest(c, s.axis, m, s.test)
			if err != nil {
				return nil, err
			}
			if match {
				filtered = append(filtered, m)
			}
		}
		filtered, err := applyPredicates(c, filtered, s.preds)
		if err != nil {
			return nil, err
		}
		out = append(out, filtered...)
	}
	return sortDedupe(out), nil
}

// matchTest applies a node test (Definition 2, plus hierarchy-qualified
// name tests) to a candidate node.
func matchTest(c *context, ax core.Axis, n *dom.Node, t nodeTest) (bool, error) {
	principal := dom.Element
	if ax == core.AxisAttribute {
		principal = dom.Attribute
	}
	switch t.kind {
	case testName:
		if n.Kind != principal || n.Name != t.name {
			return false, nil
		}
		return hierOK(c, n, t.hiers)
	case testStar:
		if n.Kind != principal {
			return false, nil
		}
		return hierOK(c, n, t.hiers)
	case testText:
		if n.Kind != dom.Text {
			return false, nil
		}
		return hierOK(c, n, t.hiers)
	case testNode:
		if len(t.hiers) == 0 {
			return true, nil
		}
		return hierOK(c, n, t.hiers)
	case testComment:
		return n.Kind == dom.Comment, nil
	case testPI:
		return n.Kind == dom.ProcInst && (t.name == "" || n.Name == t.name), nil
	case testLeaf:
		if n.Kind != dom.Leaf {
			return false, nil
		}
		return hierOK(c, n, t.hiers)
	}
	return false, nil
}

// hierOK implements the hierarchy restriction of Definition 2: the node
// must belong to one of the named hierarchies. The shared root belongs to
// all hierarchies; a leaf belongs to every hierarchy covering it.
func hierOK(c *context, n *dom.Node, hiers []string) (bool, error) {
	if len(hiers) == 0 {
		return true, nil
	}
	d := c.st.docFor(n)
	for _, h := range hiers {
		if d.HierarchyByName(h) == nil {
			return false, errf("MHXQ0001", "unknown hierarchy %q in node test", h)
		}
	}
	if n == d.Root {
		return true, nil
	}
	if n.Kind == dom.Leaf {
		for _, p := range d.LeafParents(n) {
			for _, h := range hiers {
				if p.Hier == h {
					return true, nil
				}
			}
		}
		return false, nil
	}
	for _, h := range hiers {
		if n.Hier == h {
			return true, nil
		}
	}
	return false, nil
}

// oraclePrimStep evaluates a primary-expression step once per input
// item, in that item's focus.
func oraclePrimStep(c *context, cur Seq, prim expr, last bool) (Seq, error) {
	var out Seq
	for i, it := range cur {
		c2 := *c
		c2.item, c2.pos, c2.size = it, i+1, len(cur)
		v, err := oeval(&c2, prim)
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

func (e *elemExpr) eval(c *context) (Seq, error) {
	el := dom.NewElement(e.name)
	for _, a := range e.attrs {
		var vals []string
		for _, part := range a.parts {
			v, err := oeval(c, part)
			if err != nil {
				return nil, err
			}
			for i, it := range v {
				if i > 0 {
					vals = append(vals, " ")
				}
				vals = append(vals, stringItem(c, it))
			}
		}
		el.SetAttr(a.name, strings.Join(vals, ""))
	}
	for _, ce := range e.content {
		v, err := oeval(c, ce)
		if err != nil {
			return nil, err
		}
		appendContent(el, v)
	}
	return Seq{el}, nil
}

func (e *compCtorExpr) eval(c *context) (Seq, error) {
	name := e.name
	if e.nameExpr != nil {
		v, err := oeval(c, e.nameExpr)
		if err != nil {
			return nil, err
		}
		if v = c.atomizeSeq(v); len(v) != 1 {
			return nil, errf("XPTY0004", "computed constructor name must be a single value")
		}
		name = stringValue(v[0])
	}
	var content Seq
	if e.content != nil {
		v, err := oeval(c, e.content)
		if err != nil {
			return nil, err
		}
		content = v
	}
	return oneOrErr(buildComputed(e.kind, name, content))
}

// applyPredicates is the XPath predicate rule, one predicate at a time:
// each predicate runs over every item the previous one kept, with the
// item's position among them and their count as its focus, and keeps
// the item when its value is that position (a single number) or else
// when its effective boolean value is true.
func applyPredicates(c *context, items Seq, preds []expr) (Seq, error) {
	for _, pr := range preds {
		var kept Seq
		for i, it := range items {
			c2 := *c
			c2.item, c2.pos, c2.size = it, i+1, len(items)
			v, err := oeval(&c2, pr)
			if err != nil {
				return nil, err
			}
			keep := false
			if f, isNum := oneNumber(v); isNum {
				keep = float64(i+1) == f
			} else if keep, err = ebv(v); err != nil {
				return nil, err
			}
			if keep {
				kept = append(kept, it)
			}
		}
		items = kept
	}
	return items, nil
}

// oneNumber returns the number v consists of, if it is one number.
func oneNumber(v Seq) (float64, bool) {
	if len(v) != 1 {
		return 0, false
	}
	f, ok := v[0].(float64)
	return f, ok
}

// oneOrErr wraps a constructed item as a singleton.
func oneOrErr(it Item, err error) (Seq, error) {
	if err != nil {
		return nil, err
	}
	return singleton(it), nil
}

// rangeSeq materializes lo..hi with cancellation polls (a pathological
// range is the canonical runaway query).
func rangeSeq(c *context, lo, hi float64) (Seq, error) {
	if lo != math.Trunc(lo) || hi != math.Trunc(hi) {
		return nil, errf("FORG0006", "range bounds must be integers")
	}
	var out Seq
	for v := lo; v <= hi; v++ {
		if err := c.st.checkCancel(); err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
