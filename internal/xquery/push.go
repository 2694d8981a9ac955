package xquery

import (
	"errors"
	"time"

	"mhxquery/internal/core"
	"mhxquery/internal/dom"
)

// This file is the push side of execution. Every lowered operator
// produces its result through one method, each(c, yield), which calls
// yield once per item in result order and stops as soon as yield
// returns false. Every consumer is a sink over that method: a collected
// result appends, count counts, exists/empty/boolean and the effective
// boolean value stop at the first decisive item, [k] stops at the k-th
// and the public Stream stops where its caller stops asking. A consumer
// that needs one item ((//w)[1], exists(//dmg), some $x in … satisfies
// …) therefore stops the whole upstream pipeline after one item. A path
// runs every step by one route (runStep): each context's segment
// (segRun.push) is pushed on where the segments follow each other in
// document order, and otherwise collected, as every step before the
// last is, and put in order first.
//
// The hot sinks allocate nothing per call or per item: a sink's push
// method is bound once and the sink is recycled through evalState, and
// the operators that push into their own callbacks (for clauses, filter
// stages, path steps, semi-joins) keep that state per evaluation in
// their operator slot. One slot per operator suffices
// because an operator never runs inside itself: what runs while it
// pushes is its consumer, which lies outside its subtree.

// errStop is what each returns when yield returned false: the consumer
// has what it needs. Operators pass it up unchanged, and the sink that
// stopped reads it as success.
var errStop = errors.New("xquery: consumer stopped")

// push1 pushes one item.
func push1(it Item, yield func(Item) bool) error {
	if !yield(it) {
		return errStop
	}
	return nil
}

// pushSeq pushes a materialized sequence.
func pushSeq(s Seq, yield func(Item) bool) error {
	for _, it := range s {
		if !yield(it) {
			return errStop
		}
	}
	return nil
}

// pEach runs n into yield. It is the engine's one dispatch point: under
// EXPLAIN it counts n's call and every item n pushes, and under EXPLAIN
// ANALYZE n's wall time less the time its consumer spent in yield.
func pEach(n pnode, c *context, yield func(Item) bool) error {
	st := c.st
	if st.explain == nil {
		return n.each(c, yield)
	}
	id := n.pid()
	if id < 0 {
		return n.each(c, yield)
	}
	y, done := st.instrument(id, yield)
	err := n.each(c, y)
	done()
	return err
}

// instrument wraps yield for operator id's EXPLAIN slot (see pEach);
// done records the time once the operator returns.
func (st *evalState) instrument(id int, yield func(Item) bool) (func(Item) bool, func()) {
	st.explain[id].calls++
	start := time.Now()
	var consumer time.Duration
	y := func(it Item) bool {
		st.explain[id].out++
		if !st.timed {
			return yield(it)
		}
		t := time.Now()
		ok := yield(it)
		consumer += time.Since(t)
		return ok
	}
	return y, func() {
		if st.timed {
			st.explain[id].nanos += int64(time.Since(start) - consumer)
		}
	}
}

// sink is a reusable consumer: it counts the items pushed into it,
// remembers the first, appends them when keep is set,
// and stops after stop items (0: never) or, with nodeStop, at a first
// item that is a node (which decides an effective boolean value).
// yield is its push method, bound once.
type sink struct {
	keep, nodeStop bool
	stop, n        int
	first          Item
	out            Seq
	yield          func(Item) bool
}

func (s *sink) push(it Item) bool {
	s.n++
	if s.n == 1 {
		s.first = it
		if _, isNode := it.(*dom.Node); isNode && s.nodeStop {
			return false
		}
	}
	switch {
	case !s.keep || s.n == 1: // a lone item needs no slice (pEval)
	case s.n == 2:
		s.out = append(s.out, s.first, it)
	default:
		s.out = append(s.out, it)
	}
	return s.n != s.stop
}

// sinkRun runs n into a sink from the evaluation's free list; the
// caller reads it and hands it back with putSink.
func (st *evalState) sinkRun(n pnode, c *context, keep bool, stop int, nodeStop bool) (*sink, error) {
	var s *sink
	if k := len(st.sinks); k > 0 {
		s, st.sinks = st.sinks[k-1], st.sinks[:k-1]
	} else {
		s = new(sink)
		s.yield = s.push
	}
	s.keep, s.stop, s.nodeStop = keep, stop, nodeStop
	err := pEach(n, c, s.yield)
	if err == errStop {
		err = nil
	}
	return s, err
}

// seq is a keeping sink's result.
func (s *sink) seq() Seq {
	if s.n != 1 {
		return s.out
	}
	if b, isBool := s.first.(bool); isBool {
		return singletonBool(b)
	}
	return singleton(s.first)
}

func (st *evalState) putSink(s *sink) {
	*s = sink{yield: s.yield}
	st.sinks = append(st.sinks, s)
}

// stopAt is the early-exit point k of an operand, or 0 (drain) when the
// operand calls analyze-string: every overlay the interpreter would
// build must exist before the rest of the query runs.
func stopAt(n pnode, k int) int {
	if n.overlays() {
		return 0
	}
	return k
}

// pEval collects n's result. A variable's or literal's sequence, and
// outside EXPLAIN a builtin's result, comes back as it is, without
// copying.
func pEval(n pnode, c *context) (Seq, error) {
	switch x := n.(type) {
	case *pVar:
		v, err := lookupVar(c, x.name)
		noteEval(c.st, x, len(v))
		return v, err
	case *pLiteral:
		noteEval(c.st, x, len(x.seq))
		return x.seq, nil
	case *pCall:
		switch x.fn {
		case bExists, bEmpty, bNot, bBoolean, bCount:
		default:
			if c.st.explain == nil {
				return x.call(c)
			}
		}
	}
	s, err := c.st.sinkRun(n, c, true, 0, false)
	out := s.seq()
	c.st.putSink(s)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// pCount counts n's items.
func pCount(n pnode, c *context) (int, error) {
	s, err := c.st.sinkRun(n, c, false, 0, false)
	k := s.n
	c.st.putSink(s)
	return k, err
}

// pExists reports whether n yields an item, stopping at the first.
func pExists(n pnode, c *context) (bool, error) {
	if p, ok := n.(*pProbe); ok {
		return p.truth(c)
	}
	s, err := c.st.sinkRun(n, c, false, stopAt(n, 1), false)
	k := s.n
	c.st.putSink(s)
	return k > 0, err
}

// pEbv computes the effective boolean value of n from at most two of
// its items: none is false, a first node is true, and a second item
// after an atomic first is the FORG0006 error. An error n would raise
// only beyond them is not raised, as XQuery's errors-and-optimization
// rules permit.
func pEbv(n pnode, c *context) (bool, error) {
	b, _, err := sinkTruth(n, c, 0)
	return b, err
}

// sinkTruth runs n into an effective-boolean-value sink and applies the
// predicate rule at position pos when pos > 0 (a single number selects
// by position); keep is that rule's answer, b the effective boolean
// value. A probe answers directly, and so do, outside EXPLAIN, an
// and/or, a boolean builtin and a filter of one bound node.
func sinkTruth(n pnode, c *context, pos int) (b bool, keep bool, err error) {
	switch x := n.(type) {
	case *pProbe:
		b, err = x.truth(c)
		return b, b, err
	case *pLogic:
		if c.st.explain == nil {
			b, err = x.truth(c)
			return b, b, err
		}
	case *pCall:
		if c.st.explain == nil && (x.fn == bExists || x.fn == bEmpty || x.fn == bNot || x.fn == bBoolean) {
			b, err = x.truth(c)
			return b, b, err
		}
	case *pFilter:
		if c.st.explain == nil {
			if b, ok, err := x.truth(c); ok {
				return b, b, err
			}
		}
	}
	stop, drain := 2, n.overlays()
	if drain {
		stop = 0
	}
	s, err := c.st.sinkRun(n, c, false, stop, !drain)
	first, k := s.first, s.n
	c.st.putSink(s)
	if err != nil {
		return false, false, err
	}
	if f, isNum := first.(float64); isNum && k == 1 && pos > 0 {
		return false, float64(pos) == f, nil
	}
	b, err = ebvOf(first, k)
	return b, b, err
}

// ---- predicate stages ------------------------------------------------------

// chain is the engine's one way to apply predicates. Every operator
// with predicates feeds one, a segment at a time (begin, push, end): a
// filter its base, an axis step each context's tested candidates, an
// index scan each context's name runs (a per-parent scan each parent's
// share of them), a probe its axis walk and a semi-join its target
// runs. Stage i keeps its focus in stages[i],
// counting positions, and passes the items its predicate keeps to stage
// i+1, the last stage to down (with down nil or keep set, to out too:
// a survivor set's build, survivors). A predicate that
// evaluates to a single number keeps by position, anything else by
// effective boolean value, and three kinds of stage do more:
//
//   - a constant [k] ends the segment at its k-th item, so the
//     upstream stops after it (the early exit of (//w)[1]);
//   - a semi-join (pSemiJoin) sweeps when its input size is known and
//     greater than 1, and probes per item otherwise;
//   - a predicate that reads last() in its own focus runs with the
//     segment's size when the feeder knows it (stage 0), and otherwise
//     holds its input until the segment ends (end).
//
// When a predicate calls analyze-string, every stage after the first
// holds its input, so each predicate runs over all of its input before
// the next one starts, as in the interpreter, and builds the same
// overlays in the same order.
type chain struct {
	st     *evalState
	stages []stage
	one    [1]stage // a one-predicate chain's stages: never copy a chain
	ovl    bool     // a predicate overlays
	down   func(Item) bool
	keep   bool // out also collects what down is passed
	out    Seq
	err    error // a predicate's error, or errStop when down stopped
}

// stage is one predicate of a chain and its state in the segment.
type stage struct {
	pr      pnode
	join    *pSemiJoin // pr, when it is a semi-join
	k       float64    // pr's value, when it is a number literal ([k])
	literal bool
	atLast  bool    // pr is last(): with the size known, only the last item can pass
	c       context // the focus: item, position and, when known, size
	hold    bool    // held collects the input until the segment ends
	held    Seq
	sjOn    bool   // the semi-join's segment has started: sj is its state
	sj      *sjRun // the semi-join's state, kept with its storage
}

// begin starts a segment of size items (0: not known) for preds.
func (ch *chain) begin(c *context, preds []expr, size int, down func(Item) bool) {
	if ch.stages == nil && len(preds) > 0 {
		ch.stages = ch.one[:]
		if len(preds) > 1 {
			ch.stages = make([]stage, len(preds))
		}
		for i, pr := range preds {
			s := &ch.stages[i]
			s.pr = pr.(pnode)
			s.join, _ = pr.(*pSemiJoin)
			if lit, ok := pr.(*pLiteral); ok {
				s.k, s.literal = lit.v.(float64)
			}
			s.atLast = isLastCall(pr)
			ch.ovl = ch.ovl || s.pr.overlays()
		}
	}
	ch.st, ch.down, ch.err, ch.keep = c.st, down, nil, false
	for i := range ch.stages {
		s := &ch.stages[i]
		s.c = *c
		s.c.pos, s.c.size = 0, 0
		if i == 0 {
			s.c.size = size
		}
		s.hold = s.c.size == 0 && (s.pr.readsLast() || i > 0 && ch.ovl)
		s.held, s.sjOn = s.held[:0], false
	}
}

// push feeds the segment's next item; false ends the segment, by an
// error or a stop in err, or because a [k] stage has its item.
func (ch *chain) push(it Item) bool { return ch.pass(0, it) }

// pass feeds it to stage i, and what stage i keeps on to the next
// stages and the chain's output.
func (ch *chain) pass(i int, it Item) bool {
	if err := ch.st.checkCancel(); err != nil {
		ch.err = err
		return false
	}
	for ; i < len(ch.stages); i++ {
		s := &ch.stages[i]
		if !s.sjOn && s.hold {
			s.held = append(s.held, it)
			return true
		}
		s.c.pos++
		var keep bool
		var err error
		switch {
		case s.sjOn: // a semi-join whose segment has started
			keep, err = s.sj.keep(&s.c, it)
		case s.literal:
			if pos := float64(s.c.pos); pos != s.k {
				return pos < s.k
			}
			ch.pass(i+1, it)
			return false
		case s.join != nil:
			var d *core.Document
			if n, ok := it.(*dom.Node); ok {
				d = s.c.st.docFor(n)
			}
			if s.sj == nil {
				s.sj = new(sjRun)
			}
			s.sj.start(&s.c, s.join, d, s.c.size)
			s.sjOn = true
			keep, err = s.sj.keep(&s.c, it)
		default:
			s.c.item = it
			_, keep, err = sinkTruth(s.pr, &s.c, s.c.pos)
		}
		if err != nil {
			ch.err = err
			return false
		}
		if !keep {
			return true
		}
	}
	if ch.keep || ch.down == nil {
		ch.out = append(ch.out, it)
	}
	if ch.down == nil || ch.down(it) {
		return true
	}
	ch.err = errStop
	return false
}

// end finishes the segment: each holding stage in turn runs over its
// input, whose size is now known, and it reports why the chain
// stopped early, if it did.
func (ch *chain) end() error {
	for i := range ch.stages {
		s := &ch.stages[i]
		if !s.hold || ch.err != nil {
			continue
		}
		s.hold, s.c.size = false, len(s.held)
		for _, it := range s.held[s.skip():] {
			if !ch.pass(i, it) {
				break
			}
		}
	}
	return ch.err
}

// isLastCall reports whether predicate pr is last().
func isLastCall(pr expr) bool {
	call, ok := pr.(*pCall)
	return ok && call.fn == bLast
}

// skip is how many leading items of a segment of known size stage s
// passes over unread: all but the last when its predicate is last().
func (s *stage) skip() int {
	if !s.atLast || s.c.size == 0 {
		return 0
	}
	s.c.pos = s.c.size - 1
	return s.c.pos
}

// skip is how many leading items of the segment begun the chain's
// feeder may leave out: those its first stage passes over.
func (ch *chain) skip() int {
	if len(ch.stages) == 0 {
		return 0
	}
	return ch.stages[0].skip()
}

// feed runs preds over items as one segment of known size.
func (ch *chain) feed(c *context, preds []expr, items Seq, down func(Item) bool) error {
	ch.begin(c, preds, len(items), down)
	for _, it := range items[ch.skip():] {
		if !ch.push(it) {
			break
		}
	}
	return ch.end()
}

// ---- per-operator state ----------------------------------------------------

// slot returns operator id's per-evaluation state cell.
func (st *evalState) slot(id int) *any {
	if st.slots == nil {
		st.slots = make([]any, st.plan.nOps)
	}
	return &st.slots[id]
}

// ---- paths -----------------------------------------------------------------

// each runs the path's steps in turn (runStep): every step but the last is
// collected, and the last is pushed.
func (p *pPath) each(c *context, yield func(Item) bool) error {
	var one [1]Item
	var cur Seq
	switch {
	case p.start != nil:
		v, err := pEval(p.start, c)
		if err != nil {
			return err
		}
		cur = v
	case p.absolute:
		one[0] = c.st.rootFor(c.item)
		cur = one[:]
	default:
		if c.item == nil {
			return errf("XPDY0002", "context item undefined at start of relative path")
		}
		one[0] = c.item
		cur = one[:]
	}
	last := len(p.ops) - 1
	for i, op := range p.ops {
		var y func(Item) bool
		if i == last {
			y = yield
		}
		var err error
		if ex := c.st.explain; ex != nil {
			// EXPLAIN counts the step's call, contexts and items, and
			// EXPLAIN ANALYZE its time less its consumer's.
			ex[op.id].in += int64(len(cur))
			iy, done := c.st.instrument(op.id, yield)
			if y != nil {
				y = iy
			}
			cur, err = runStep(c, cur, op, y)
			ex[op.id].out += int64(len(cur))
			done()
		} else {
			cur, err = runStep(c, cur, op, y)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runStep runs path operator op over the contexts cur: it pushes the
// result into yield, or with yield nil returns it, in document order
// without duplicates. Pushed context by context, the segments keep that
// order only when segmentsOrdered proves, before anything is pushed,
// that no two can interleave or share items. Otherwise, and to collect,
// each context's segment is appended (segRun.push) and, where a junction
// is out of order, the result merged (mergeDocOrder). A per-parent scan
// whose contexts fail segmentsOrdered runs as its pair of steps.
func runStep(c *context, cur Seq, op *pathOp, yield func(Item) bool) (Seq, error) {
	st := c.st
	if op.kind == opPrimStep {
		out, err := evalPrimStep(c, cur, op.prim, op.primLast)
		if err != nil || yield == nil {
			return out, err
		}
		return nil, pushSeq(out, yield)
	}
	ordered := (yield != nil || op.expand != nil) && segmentsOrdered(st, cur, op)
	if op.expand != nil && !ordered {
		return stepPair(c, cur, op, yield)
	}
	r := st.segRun(op.id)
	if ordered && yield != nil {
		for _, it := range cur {
			n := it.(*dom.Node)
			if _, err := r.push(c, n, st.docFor(n), op, nil, yield); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	var out Seq
	sorted := true // out is strictly ascending across segment junctions
	for _, it := range cur {
		n, ok := it.(*dom.Node)
		if !ok {
			return nil, errf("XPTY0019", "%s:: step applied to an atomic value", op.s.axis)
		}
		start := len(out)
		var err error
		if out, err = r.push(c, n, st.docFor(n), op, out, nil); err != nil {
			return nil, err
		}
		if sorted && start > 0 && len(out) > start &&
			dom.Compare(out[start-1].(*dom.Node), out[start].(*dom.Node)) >= 0 {
			sorted = false
		}
	}
	if !sorted {
		out = st.mergeDocOrder(out)
	}
	if yield == nil {
		return out, nil
	}
	return nil, pushSeq(out, yield)
}

// stepPair runs a per-parent index scan over the contexts cur as the
// descendant-or-self::node()/child::name[p] pair it stands for.
func stepPair(c *context, cur Seq, op *pathOp, yield func(Item) bool) (Seq, error) {
	mid, err := runStep(c, cur, op.expand[0], nil)
	if err != nil {
		return nil, err
	}
	return runStep(c, mid, op.expand[1], yield)
}

// segmentsOrdered reports whether op's segments over the contexts cur
// follow each other in document order. Index scans and the downward
// axes qualify (their results lie within the context's subtree closure)
// when every context is an ordinal-bearing element node (or the shared
// root) of one document and every adjacent pair passes verifyPair.
// Other axes' results can precede their context, so they never do.
func segmentsOrdered(st *evalState, cur Seq, op *pathOp) bool {
	if op.kind == opAxisStep {
		switch op.s.axis {
		case core.AxisChild, core.AxisSelf, core.AxisDescendant, core.AxisDescendantOrSelf:
		default:
			return false
		}
	}
	var prev *dom.Node
	for _, it := range cur {
		n, ok := it.(*dom.Node)
		if !ok {
			return false
		}
		d := st.docFor(n)
		if n != d.Root {
			if _, ok := d.OrdinalOf(n); !ok || n.Kind != dom.Element {
				return false
			}
		}
		if prev != nil && !verifyPair(st, op, prev, n) {
			return false
		}
		prev = n
	}
	return true
}

// verifyPair proves segment a cannot interleave with (or duplicate
// into) any segment at or after b:
//
//   - same hierarchy: b's preorder ordinal lies beyond a's subtree
//     (disjoint subtrees: for the downward axes every item of one
//     segment precedes every item of the next, shared leaves included,
//     whose spans inherit the subtree order);
//   - different hierarchies, in registration order: only for
//     single-kind tests that cannot select shared leaves
//     (name/*/text()), whose segments stay inside their hierarchy's
//     document-order block;
//   - self axis: the segments are the contexts, so context order alone.
func verifyPair(st *evalState, op *pathOp, a, b *dom.Node) bool {
	da, db := st.docFor(a), st.docFor(b)
	if da != db || a == da.Root || b == da.Root {
		return false
	}
	if op.s.axis == core.AxisSelf {
		return dom.Compare(a, b) < 0
	}
	kind := op.s.test.kind
	if op.kind == opIndexScan {
		kind = testName
	}
	if a.HierIndex == b.HierIndex {
		if b.Ord <= a.Last {
			return false // nested or out of order
		}
		switch kind {
		case testName, testStar, testText, testLeaf:
			return true
		}
		return false // node(): element and leaf order blocks interleave
	}
	if a.HierIndex < b.HierIndex {
		switch kind {
		case testName, testStar, testText:
			return true
		}
	}
	return false
}

// segRun is a path step's per-evaluation state: its per-document
// bindings, its predicates' stage chain, and the segment being pushed,
// which stays valid while the consumer runs (nested evaluation may
// reuse the evaluation-wide buffers, so these cannot be those).
type segRun struct {
	rt    resolvedTest
	idx   indexSeg
	buf   Seq
	ch    chain
	sizes []int // a per-parent scan's segment sizes (pushGroups)
}

// segRun returns path operator id's state.
func (st *evalState) segRun(id int) *segRun {
	cell := st.slot(id)
	r, _ := (*cell).(*segRun)
	if r == nil {
		r = new(segRun)
		*cell = r
	}
	return r
}

// push runs context n's segment of op: appended to out and returned when
// yield is nil, else pushed into yield. An axis segment is built whole
// (its size is bounded by the axis fan-out; descendant name steps are
// index scans). An index segment streams out of the name-index runs
// (pushScan), a parent at a time for a per-parent scan (pushGroups), and
// from the root, under candidate-only predicates (pathOp.key), out of
// the survivor set of the name's run (survivors). A constructed node has
// no name runs, so an index scan's constructed context runs on the axis
// pipeline.
func (r *segRun) push(c *context, n *dom.Node, d *core.Document, op *pathOp, out Seq, yield func(Item) bool) (Seq, error) {
	s := op.s
	if op.kind == opIndexScan && d.Owns(n) {
		if r.rt.doc != d {
			r.rt.init(d, s)
		}
		if ok, err := indexSegment(&r.idx, d, n, s, &r.rt); err != nil || !ok {
			return out, err
		}
		if op.expand != nil {
			return r.pushGroups(c, d, n, op, out, yield)
		}
		if op.key != "" && n == d.Root && r.idx.self == nil {
			runs, ok, err := c.st.survivors(c, &r.ch, s.preds, d, r.rt.nameSym, op.key, true, yield)
			if ok && yield == nil {
				for hi, run := range runs {
					for _, ord := range run {
						out = append(out, d.Hiers[hi].Nodes[ord])
					}
				}
			}
			if ok || err != nil {
				return out, err
			}
		}
		return r.pushScan(c, s, out, yield)
	}
	if yield == nil {
		return axisSegment(c, r, out, d, n, s)
	}
	seg, err := axisSegment(c, r, r.buf[:0], d, n, s)
	if err != nil {
		return out, err
	}
	r.buf = seg
	return out, pushSeq(seg, yield)
}

// pushScan runs the index segment in r.idx through the stage chain,
// whose input size the run lengths fix, so it stops where the consumer
// stops.
func (r *segRun) pushScan(c *context, s *step, out Seq, yield func(Item) bool) (Seq, error) {
	r.ch.out = out
	r.ch.begin(c, s.preds, r.idx.total(), yield)
	for k := r.ch.skip(); k > 0; k-- {
		r.idx.next()
	}
	for m, ok := r.idx.next(); ok; m, ok = r.idx.next() {
		if !r.ch.push(m) {
			break
		}
	}
	err := r.ch.end()
	out, r.ch.out = r.ch.out, nil
	return out, err
}

// pushGroups runs the candidates of a per-parent index scan
// (pathOp.expand), which indexSegment put in r.idx for context n, one
// parent's children at a time: each parent's candidates are one segment
// of the stage chain, whose size a first pass over the run counts. The
// segments follow each other in run order, which is document order,
// unless a name nests in itself or in a sibling's subtree: a later
// candidate then lies inside the subtree of a parent whose segment
// ended, and that segment may resume after it. The first pass finds
// such a candidate, and n then runs the expanded pair of axis steps.
func (r *segRun) pushGroups(c *context, d *core.Document, n *dom.Node, op *pathOp, out Seq, yield func(Item) bool) (Seq, error) {
	r.sizes = r.sizes[:0]
	ahead := r.idx.rc
	var parent *dom.Node
	for m, ok := ahead.Next(); ok; m, ok = ahead.Next() {
		if parent != nil && m.Parent == parent {
			r.sizes[len(r.sizes)-1]++
			continue
		}
		if parent != nil && within(d, parent, m) {
			seg, err := stepPair(c, Seq{n}, op, yield)
			return append(out, seg...), err
		}
		parent = m.Parent
		r.sizes = append(r.sizes, 1)
	}
	r.ch.out = out
	var err error
	for _, size := range r.sizes {
		r.ch.begin(c, op.s.preds, size, yield)
		skip := r.ch.skip()
		more := true
		for k := range size {
			m, _ := r.idx.rc.Next()
			more = more && (k < skip || r.ch.push(m))
		}
		if err = r.ch.end(); err != nil {
			break
		}
	}
	out, r.ch.out = r.ch.out, nil
	return out, err
}

// within reports whether document node m lies in p's subtree.
func within(d *core.Document, p, m *dom.Node) bool {
	return p == d.Root || m.HierIndex == p.HierIndex && p.Ord < m.Ord && m.Ord <= p.Last
}
