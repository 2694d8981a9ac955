package xquery

import (
	"math"
	"sort"

	"mhxquery/internal/dom"
)

// This file is the physical expression layer. Every AST expression kind
// is lowered (plan.go) into a pnode, a physical operator with one
// evaluation method, each, which pushes its result item by item into a
// consumer (push.go). FLWOR bindings, quantifier sources, filter bases
// and the last step of a path push lazily, so a consumer that needs one
// item ((//w)[1], exists, some $x in …) stops the whole upstream
// pipeline after one item.
//
// An expression whose effective boolean value alone is used — a
// predicate, an and/or operand, an if, where or satisfies condition, the
// argument of exists/empty/not/boolean — is lowered by lowerTruth: a
// relative one-step path there becomes an existence probe (pProbe,
// semijoin.go) that stops at the first node on its axis, and pEbv and
// the exists/empty calls ask it for its truth value directly.
//
// analyze-string advances the evaluation's active document to an
// overlay with a finer leaf partition, so the interpreter's evaluation
// order is observable around it. Lowering marks every operator whose
// subtree calls it (overlays), and three rules keep that order: a for
// clause, quantifier binding or filter whose source or per-item body
// (the later clauses and return, the later bindings and satisfies, the
// predicates) overlays collects its source before running the body, an
// early-exit consumer drains an operand that overlays, and a predicate
// stage chain with a predicate that overlays runs its predicates one
// after the other (chain, push.go). Every other part of such a query
// keeps its early exit.

// pnode is a lowered physical expression.
type pnode interface {
	each(c *context, yield func(Item) bool) error
	pid() int
	overlays() bool
	readsLast() bool
}

// pbase carries the explain slot shared by all pnodes, the overlay
// mark and, on a predicate, the mark that it reads last() in its own
// focus (planner.stage).
type pbase struct {
	id        int
	ovl, last bool
}

func (b *pbase) pid() int        { return b.id }
func (b *pbase) overlays() bool  { return b.ovl }
func (b *pbase) markOverlays()   { b.ovl = true }
func (b *pbase) readsLast() bool { return b.last }
func (b *pbase) markReadsLast()  { b.last = true }

// ---- leaves ----------------------------------------------------------------

type pLiteral struct {
	pbase
	v   Item
	seq Seq
}

func (e *pLiteral) each(c *context, yield func(Item) bool) error { return pushSeq(e.seq, yield) }

type pVar struct {
	pbase
	name string
}

func (e *pVar) each(c *context, yield func(Item) bool) error {
	v, err := lookupVar(c, e.name)
	if err != nil {
		return err
	}
	return pushSeq(v, yield)
}

func lookupVar(c *context, name string) (Seq, error) {
	v, ok := c.lookup(name)
	if !ok {
		return nil, errf("XPST0008", "undefined variable $%s", name)
	}
	return v, nil
}

type pContextItem struct{ pbase }

func (e *pContextItem) each(c *context, yield func(Item) bool) error {
	if c.item == nil {
		return errf("XPDY0002", "context item is undefined")
	}
	return push1(c.item, yield)
}

type pRoot struct{ pbase }

func (e *pRoot) each(c *context, yield func(Item) bool) error {
	return push1(c.st.rootFor(c.item), yield)
}

// ---- sequences -------------------------------------------------------------

type pSeq struct {
	pbase
	items []pnode
}

func (e *pSeq) each(c *context, yield func(Item) bool) error {
	for _, it := range e.items {
		if err := pEach(it, c, yield); err != nil {
			return err
		}
	}
	return nil
}

type pRange struct {
	pbase
	lo, hi pnode
}

func (e *pRange) each(c *context, yield func(Item) bool) error {
	lo, empty, err := evalNumber(c, e.lo, "range")
	if err != nil || empty {
		return err
	}
	hi, empty, err := evalNumber(c, e.hi, "range")
	if err != nil || empty {
		return err
	}
	if lo != math.Trunc(lo) || hi != math.Trunc(hi) {
		return errf("FORG0006", "range bounds must be integers")
	}
	for v := lo; v <= hi; v++ {
		if err := c.st.checkCancel(); err != nil {
			return err
		}
		if !yield(v) {
			return errStop
		}
	}
	return nil
}

// ---- boolean connectives ---------------------------------------------------

// pLogic is and (all) or or: the second operand runs only when the
// first leaves the answer open. When it is a semi-join predicate of the
// context item, set answers from the item's survivor set first
// (member).
type pLogic struct {
	pbase
	and  bool
	a, b pnode
	set  *pSemiJoin
}

func (e *pLogic) each(c *context, yield func(Item) bool) error {
	b, err := e.truth(c)
	if err != nil {
		return err
	}
	return push1(b, yield)
}

func (e *pLogic) truth(c *context) (bool, error) {
	if n, ok := c.item.(*dom.Node); ok && e.set != nil {
		if ans, err := e.set.member(c, n); err != nil || ans != sjUndecided {
			return ans == sjYes, err
		}
	}
	b, err := pEbv(e.a, c)
	if err == nil && b == e.and {
		b, err = pEbv(e.b, c)
	}
	return b, err
}

// ---- comparisons and arithmetic --------------------------------------------

type pCmp struct {
	pbase
	op   string
	kind cmpKind
	a, b pnode
}

func (e *pCmp) each(c *context, yield func(Item) bool) error {
	var ia, ib [1]Item
	va, err := e.operand(c, e.a, &ia)
	if err != nil {
		return err
	}
	vb, err := e.operand(c, e.b, &ib)
	if err != nil {
		return err
	}
	v, err := evalCmp(c, e.op, e.kind, va, vb)
	if err != nil {
		return err
	}
	return pushSeq(v, yield)
}

// operand evaluates one side of the comparison; "." and "string(.)"
// (operandItem) are read into buf instead. Node comparisons need real
// nodes, so they take only ".".
func (e *pCmp) operand(c *context, n pnode, buf *[1]Item) (Seq, error) {
	if _, isCall := n.(*pCall); !isCall || e.kind != cmpNode {
		if it, ok := operandItem(c, n); ok {
			buf[0] = it
			return buf[:], nil
		}
	}
	return pEval(n, c)
}

type pArith struct {
	pbase
	op   string
	a, b pnode
}

func (e *pArith) each(c *context, yield func(Item) bool) error {
	x, empty, err := evalNumber(c, e.a, "arithmetic")
	if err != nil || empty {
		return err
	}
	y, empty, err := evalNumber(c, e.b, "arithmetic")
	if err != nil || empty {
		return err
	}
	v, err := evalArith(e.op, x, y)
	if err != nil {
		return err
	}
	return push1(v, yield)
}

type pUnary struct {
	pbase
	x pnode
}

func (e *pUnary) each(c *context, yield func(Item) bool) error {
	x, empty, err := evalNumber(c, e.x, "unary minus")
	if err != nil || empty {
		return err
	}
	return push1(-x, yield)
}

// ---- node-set operators ----------------------------------------------------

// pSetOp is union (|), intersect or except.
type pSetOp struct {
	pbase
	op   string
	a, b pnode
}

func (e *pSetOp) each(c *context, yield func(Item) bool) error {
	va, err := pEval(e.a, c)
	if err != nil {
		return err
	}
	vb, err := pEval(e.b, c)
	if err != nil {
		return err
	}
	var v Seq
	if e.op == "union" {
		v, err = evalUnion(va, vb)
	} else {
		v, err = evalIntersect(va, vb, e.op == "except")
	}
	if err != nil {
		return err
	}
	return pushSeq(v, yield)
}

// ---- control flow ----------------------------------------------------------

type pIf struct {
	pbase
	cond, then, els pnode
}

func (e *pIf) each(c *context, yield func(Item) bool) error {
	b, err := pEbv(e.cond, c)
	if err != nil {
		return err
	}
	if b {
		return pEach(e.then, c, yield)
	}
	return pEach(e.els, c, yield)
}

// tupleSlot is one FLWOR clause's binding storage: its context and
// frames are rebound for every tuple instead of allocated per tuple
// (context.bind), because the consumer is done with a tuple before the
// next one is bound. A pushed item is bound through the slot's own
// one-item array, so a tuple's frame is dead once its yield returns. A
// consumer that keeps tuples (order by) collects its sources and copies
// the tuples (keepTuple). A position is bound through the evaluation's
// table of numbers (evalState.number), which a kept tuple may share.
type tupleSlot struct {
	c     context
	f, pf frame
	one   [1]Item
	i     int // the tuple's position in its binding sequence
}

// bind points the slot at c extended by name (and, when posName is
// set, a positional variable over it) and returns the slot's context;
// the frames' values are set per tuple.
func (s *tupleSlot) bind(c *context, name, posName string) *context {
	s.c = *c
	s.f = frame{name: name, next: c.vars}
	s.c.vars = &s.f
	s.pf = frame{}
	if posName != "" {
		s.pf = frame{name: posName, next: &s.f}
		s.c.vars = &s.pf
	}
	s.i = 0
	return &s.c
}

// set binds the slot's next tuple to v, or to the pushed item it
// through the slot's own arrays.
func (s *tupleSlot) set(v Seq, it Item) {
	s.i++
	if v == nil {
		s.one[0] = it
		v = s.one[:]
	}
	s.f.val = v
	if s.pf.name != "" {
		s.pf.val = s.c.st.number(s.i)
	}
}

// pQuant is a quantifier over its tuples: a FLWOR of its bindings
// whose where clause is the satisfies condition ("some") or its
// negation ("every"), returning one item per deciding tuple.
type pQuant struct {
	pbase
	every  bool
	tuples *pFLWOR
}

// each stops at the first deciding tuple, so the sources are pushed no
// further than the answer requires — also under analyze-string, whose
// sources the tuples collect, as the interpreter does.
func (e *pQuant) each(c *context, yield func(Item) bool) error {
	s, err := c.st.sinkRun(e.tuples, c, false, 1, false)
	found := s.n > 0
	c.st.putSink(s)
	if err != nil {
		return err
	}
	return push1(found != e.every, yield)
}

// ---- FLWOR -----------------------------------------------------------------

type pClause struct {
	kind    clauseKind
	name    string
	posName string
	src     pnode
	collect bool // for clause: source or the rest overlays, or order by
}

type pOrderSpec struct {
	key  pnode
	spec orderSpec
}

type pFLWOR struct {
	pbase
	clauses []pClause
	order   []pOrderSpec
	ret     pnode
}

// setCollect marks the for clauses that collect their source: all
// under order by (the kept tuples bind subslices of it), and those
// where the source or the rest of the FLWOR overlays.
func (f *pFLWOR) setCollect() {
	rest := len(f.order) > 0 || f.ret.overlays()
	for _, o := range f.order {
		rest = rest || o.key.overlays()
	}
	for i := len(f.clauses) - 1; i >= 0; i-- {
		rest = rest || f.clauses[i].src.overlays()
		f.clauses[i].collect = rest
	}
}

// flworRun is a FLWOR's tuple walk state (one per evaluation, kept in
// the operator's slot): the clause slots, and each for clause's push
// method, bound once.
type flworRun struct {
	f     *pFLWOR
	slots []tupleSlot
	binds []func(Item) bool
	outer *context
	down  func(Item) bool
	tups  []flworTup
	err   error // an error, or errStop when the consumer stopped
}

// flworTup is one order-by tuple: the bound context and its atomized
// sort keys.
type flworTup struct {
	c    *context
	keys []Seq
}

func newFlworRun(f *pFLWOR) *flworRun {
	r := &flworRun{f: f, slots: make([]tupleSlot, len(f.clauses)), binds: make([]func(Item) bool, len(f.clauses))}
	for i := range r.binds {
		r.binds[i] = func(it Item) bool {
			if r.err = r.slots[i].c.st.checkCancel(); r.err != nil {
				return false
			}
			r.slots[i].set(nil, it)
			return r.walk(&r.slots[i].c, i+1)
		}
	}
	return r
}

func (f *pFLWOR) each(c *context, yield func(Item) bool) error {
	cell := c.st.slot(f.id)
	r, _ := (*cell).(*flworRun)
	if r == nil {
		r = newFlworRun(f)
		*cell = r
	}
	r.outer, r.down, r.err, r.tups = c, yield, nil, nil
	r.walk(c, 0)
	if r.err != nil || len(f.order) == 0 {
		return r.err
	}
	tups := r.tups
	r.tups = nil
	sort.SliceStable(tups, func(i, j int) bool {
		for k := range f.order {
			o := &f.order[k].spec
			cres, ok := compareOrderKeys(*o, tups[i].keys[k], tups[j].keys[k])
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
	for _, t := range tups {
		if err := pEach(f.ret, t.c, yield); err != nil {
			return err
		}
	}
	return nil
}

// walk binds clause idx onward and emits each complete tuple: its
// return pushed into the consumer, or, under order by, the tuple kept.
// It reports whether the walk goes on.
func (r *flworRun) walk(c *context, idx int) bool {
	f := r.f
	for ; idx < len(f.clauses); idx++ {
		cl, s := &f.clauses[idx], &r.slots[idx]
		switch cl.kind {
		case clauseLet:
			v, err := pEval(cl.src, c)
			if err != nil {
				return r.fail(err)
			}
			c = s.bind(c, cl.name, "")
			s.f.val = v
		case clauseWhere:
			b, err := pEbv(cl.src, c)
			if err != nil || !b {
				return r.fail(err)
			}
		default:
			c2 := s.bind(c, cl.name, cl.posName)
			if !cl.collect {
				err := pEach(cl.src, c, r.binds[idx])
				return r.err == nil && r.fail(err)
			}
			v, err := pEval(cl.src, c)
			if err != nil {
				return r.fail(err)
			}
			for k := range v {
				if r.err = c.st.checkCancel(); r.err != nil {
					return false
				}
				s.set(v[k:k+1:k+1], nil)
				if !r.walk(c2, idx+1) {
					return false
				}
			}
			return true
		}
	}
	if len(f.order) == 0 {
		return r.fail(pEach(f.ret, c, r.down))
	}
	keys := make([]Seq, len(f.order))
	for i := range f.order {
		v, err := pEval(f.order[i].key, c)
		if err != nil {
			return r.fail(err)
		}
		keys[i] = c.atomizeSeq(v)
	}
	r.tups = append(r.tups, flworTup{c: keepTuple(r.outer, c), keys: keys})
	return true
}

// fail records err and reports whether the walk goes on.
func (r *flworRun) fail(err error) bool {
	if err != nil {
		r.err = err
		return false
	}
	return true
}

// keepTuple copies the tuple context c2 of a FLWOR evaluated in outer,
// frames included, so it outlives the tuple slots.
func keepTuple(outer, c2 *context) *context {
	nc := *c2
	link := &nc.vars
	for f := c2.vars; f != outer.vars; f = f.next {
		nf := &frame{name: f.name, val: f.val}
		*link = nf
		link = &nf.next
	}
	*link = outer.vars
	return &nc
}

// ---- function calls --------------------------------------------------------

type pCall struct {
	pbase
	name string
	fn   *builtin
	args []pnode
}

func (e *pCall) each(c *context, yield func(Item) bool) error {
	// The builtins whose results depend on at most the first item or
	// two (exists, empty, boolean, not) or only on the item count
	// (count) consume their argument through a sink, so index scans and
	// FLWOR pipelines below them stop as soon as the answer is decided.
	switch e.fn {
	case bExists, bEmpty, bNot, bBoolean:
		b, err := e.truth(c)
		if err != nil {
			return err
		}
		return push1(b, yield)
	case bCount:
		n, err := pCount(e.args[0], c)
		if err != nil {
			return err
		}
		return push1(float64(n), yield)
	}
	out, err := e.call(c)
	if err != nil {
		return err
	}
	return pushSeq(out, yield)
}

// truth evaluates one of the boolean builtins exists, empty, not and
// boolean.
func (e *pCall) truth(c *context) (b bool, err error) {
	if e.fn == bExists || e.fn == bEmpty {
		b, err = pExists(e.args[0], c)
		return b == (e.fn == bExists), err
	}
	b, err = pEbv(e.args[0], c)
	return b == (e.fn == bBoolean), err
}

// call evaluates the arguments onto the evaluation's argument stack
// above the caller's (nested calls push and pop above them) and applies
// the builtin. A builtin that reads every argument as a string
// (strArgs) takes "." and "string(.)" arguments as one-item sequences
// on the item stack.
func (e *pCall) call(c *context) (Seq, error) {
	if len(e.args) == 0 {
		return e.fn.fn(c, nil)
	}
	st := c.st
	mark, imark := len(st.args), len(st.items)
	var err error
	for _, a := range e.args {
		if e.fn.strArgs {
			if it, ok := operandItem(c, a); ok {
				st.items = append(st.items, it)
				n := len(st.items)
				st.args = append(st.args, st.items[n-1:n:n])
				continue
			}
		}
		var v Seq
		if v, err = pEval(a, c); err != nil {
			break
		}
		st.args = append(st.args, v)
	}
	var out Seq
	if err == nil {
		out, err = e.fn.fn(c, st.args[mark:len(st.args):len(st.args)])
	}
	clear(st.args[mark:])
	clear(st.items[imark:])
	st.args, st.items = st.args[:mark], st.items[:imark]
	return out, err
}

// operandItem returns the one item an operand denotes when it can be
// read off the context without evaluation: the context item for ".",
// and the context node itself for "string(.)" over a node. A node
// stands for its string value only where every item is atomized to a
// string first (c.atomize, stringItem), so it is used by general and
// value comparisons and by strArgs builtins alone. Under EXPLAIN the
// skipped operators are counted as if evaluated.
func operandItem(c *context, n pnode) (Item, bool) {
	if c.item == nil {
		return nil, false
	}
	switch x := n.(type) {
	case *pContextItem:
		noteEval(c.st, x, 1)
		return c.item, true
	case *pCall:
		if x.fn != bString || len(x.args) > 1 {
			return nil, false
		}
		if len(x.args) == 1 {
			if _, ok := x.args[0].(*pContextItem); !ok {
				return nil, false
			}
		}
		nd, ok := c.item.(*dom.Node)
		if !ok {
			return nil, false
		}
		noteEval(c.st, x, 1)
		for _, a := range x.args {
			noteEval(c.st, a, 1)
		}
		return nd, true
	}
	return nil, false
}

// noteEval records one evaluation of n yielding k items in the explain
// counters, as pEach would have.
func noteEval(st *evalState, n pnode, k int) {
	if st.explain != nil && n.pid() >= 0 {
		st.explain[n.pid()].calls++
		st.explain[n.pid()].out += int64(k)
	}
}

// Builtins the engine special-cases, resolved by identity after
// funcs.go has registered them (package init functions run in file
// order, and a package-level var would capture the still-empty map).
var bExists, bEmpty, bNot, bBoolean, bCount, bAnalyze, bString, bLast *builtin

func init() {
	bExists = builtins["exists"]
	bEmpty = builtins["empty"]
	bNot = builtins["not"]
	bBoolean = builtins["boolean"]
	bCount = builtins["count"]
	bAnalyze = builtins["analyze-string"]
	bString = builtins["string"]
	bLast = builtins["last"]
	for _, name := range []string{"string-length", "matches", "replace", "tokenize", "contains", "starts-with", "ends-with"} {
		builtins[name].strArgs = true
	}
}

// ---- filters ---------------------------------------------------------------

// pFilter applies its predicates to its base through a stage chain:
// pushed as the base streams, or, when the filter overlays, over the
// base collected first.
type pFilter struct {
	pbase
	base  pnode
	preds []expr // lowered pnodes
}

// filterRun is a filter's per-evaluation state, kept in its slot: the
// stage chain and its push method, bound once.
type filterRun struct {
	ch   chain
	push func(Item) bool
}

// truth is the effective boolean value of $x[p] for a variable bound
// to one node and a predicate lowered to a truth test (pProbe, pLogic),
// which never selects by position: whether the node passes. ok=false
// leaves other shapes to the stage chain.
func (e *pFilter) truth(c *context) (b, ok bool, err error) {
	v, isVar := e.base.(*pVar)
	if !isVar || len(e.preds) != 1 {
		return false, false, nil
	}
	var t interface{ truth(*context) (bool, error) }
	switch p := e.preds[0].(type) {
	case *pProbe:
		t = p
	case *pLogic:
		t = p
	default:
		return false, false, nil
	}
	seq, _ := c.lookup(v.name)
	if len(seq) != 1 {
		return false, false, nil
	}
	n, isNode := seq[0].(*dom.Node)
	if !isNode {
		return false, false, nil
	}
	c2 := c.st.scratchContext(c)
	c2.item, c2.pos, c2.size = n, 1, 1
	b, err = t.truth(c2)
	c.st.releaseContext(c2)
	return b, true, err
}

func (e *pFilter) each(c *context, yield func(Item) bool) error {
	cell := c.st.slot(e.id)
	r, _ := (*cell).(*filterRun)
	if r == nil {
		r = new(filterRun)
		r.push = r.ch.push
		*cell = r
	}
	if e.overlays() {
		items, err := pEval(e.base, c)
		if err != nil {
			return err
		}
		return r.ch.feed(c, e.preds, items, yield)
	}
	r.ch.begin(c, e.preds, 0, yield)
	if err := pEach(e.base, c, r.push); err != nil && err != errStop {
		return err
	}
	return r.ch.end()
}

// ---- constructors ----------------------------------------------------------

type pElem struct {
	pbase
	name    string
	attrs   []pAttr
	content []pnode
}

// pAttr is a lowered attribute value template.
type pAttr struct {
	name  string
	parts []pnode
}

func (e *pElem) each(c *context, yield func(Item) bool) error {
	el, err := buildElement(c, e.name, e.attrs, e.content)
	if err != nil {
		return err
	}
	return push1(el, yield)
}

type pCompCtor struct {
	pbase
	kind     byte
	name     string
	nameExpr pnode // nil when the name is literal
	content  pnode // nil for empty content
}

func (e *pCompCtor) each(c *context, yield func(Item) bool) error {
	name, err := resolveCtorName(c, e.name, e.nameExpr)
	if err != nil {
		return err
	}
	var content Seq
	if e.content != nil {
		if content, err = pEval(e.content, c); err != nil {
			return err
		}
	}
	n, err := buildComputed(e.kind, name, content)
	if err != nil {
		return err
	}
	return push1(n, yield)
}

// ---- small local helpers ---------------------------------------------------

// anyExpr reports whether e or an expression in its subtree (nested
// scopes included) satisfies is.
func anyExpr(e expr, is func(expr) bool) bool {
	found := is(e)
	visitChildren(e, func(ch expr) {
		found = found || anyExpr(ch, is)
	})
	return found
}

func isAnalyzeCall(e expr) bool {
	call, ok := e.(*callExpr)
	return ok && call.fn == bAnalyze
}

// describeLiteral renders a literal for EXPLAIN output.
func describeLiteral(v Item) string {
	if s, ok := v.(string); ok {
		if r := []rune(s); len(r) > 20 {
			s = string(r[:20]) + "…"
		}
		return `"` + s + `"`
	}
	return stringValue(v)
}
