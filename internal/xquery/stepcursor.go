package xquery

import (
	"mhxquery/internal/core"
	"mhxquery/internal/dom"
)

// This file streams path execution: each path operator becomes a cursor
// that pulls context nodes from the operator upstream of it one at a
// time and emits its own result items lazily. Segments come from the
// same builders strict execution uses (indexSegment, axisSegment);
// index-scan segments are never materialized (they iterate name-index
// runs through core.RunCursor), so a consumer that stops after one item
// — (//w)[1], exists(//dmg), a FLWOR binding under a quantifier — does
// O(answer) work instead of O(document).
//
// # Order and duplicate discipline
//
// A step's output must be ascending Definition 3 document order with no
// duplicates, exactly what the strict executors produce. Streaming
// preserves this by verifying the whole CONTEXT chain before emitting
// anything: the upstream context list (small — it is the previous
// step's result set, which the strict engine materializes anyway) is
// drained and checked, and only then do the result segments (large)
// stream lazily. The chain verifies when every adjacent context pair
// proves its segments cannot interleave or share items:
//
//   - both are ordinal-bearing element nodes of the same document;
//   - same hierarchy: the successor's preorder ordinal lies beyond the
//     predecessor's subtree (disjoint subtrees ⟹ for the downward
//     axes every item of one segment precedes every item of the next —
//     including shared leaves, whose spans inherit the subtree order);
//   - different hierarchies (in registration order): only for
//     single-kind node tests that cannot select shared leaves
//     (name/*/text()), whose segments stay inside their hierarchy's
//     document-order block;
//   - self axis: context order alone suffices (segments are the
//     contexts themselves).
//
// Anything else — atomic items, constructed or attribute contexts,
// nested subtrees, node()/leaf() tests across multiple contexts,
// cross-document mixes, out-of-order context sequences — routes the
// whole step through the strict executors with nothing yet emitted, so
// the cursor's output (and its error points) are exactly the strict
// engine's.
//
// Non-downward axes (ancestors, siblings, following/preceding, the
// extended overlap axes) always take the strict route: their results
// can precede their context, so no gating applies; the operator then
// streams its materialized result, which still lets everything
// downstream early-exit.

// streamableStepAxis reports whether the axis's results always lie
// within the context's subtree closure (the downward property segment
// gating relies on).
func streamableStepAxis(a core.Axis) bool {
	switch a {
	case core.AxisChild, core.AxisSelf, core.AxisDescendant, core.AxisDescendantOrSelf:
		return true
	}
	return false
}

// openPath builds the cursor pipeline of a lowered path.
func (p *pPath) open(c *context) cursor {
	var src cursor
	switch {
	case p.start != nil:
		src = popen(p.start, c)
	case p.absolute:
		src = seqCur(Seq{c.st.rootFor(c.item)})
	default:
		if c.item == nil {
			return errCur(errf("XPDY0002", "context item undefined at start of relative path"))
		}
		src = seqCur(Seq{c.item})
	}
	for _, op := range p.ops {
		src = newOpCursor(c, src, op)
		// Under EXPLAIN ANALYZE, time each operator at the pipeline
		// seam; the op cursors keep their own calls/in/out accounting.
		if c.st.timed && c.st.explain != nil {
			src = &opTimerCursor{inner: src, st: c.st, id: op.id}
		}
	}
	return src
}

// newOpCursor wraps one path operator around its upstream cursor.
func newOpCursor(c *context, up cursor, op *pathOp) cursor {
	switch op.kind {
	case opIndexScan:
		return &stepCursor{c: c, up: up, op: op}
	case opAxisStep:
		if streamableStepAxis(op.s.axis) {
			return &stepCursor{c: c, up: up, op: op}
		}
	}
	return strictOpCursor(c, up, op)
}

// strictOpCursor drains the upstream, evaluates the operator strictly,
// and streams the materialized result.
func strictOpCursor(c *context, up cursor, op *pathOp) cursor {
	return &thunkCursor{f: func() (cursor, error) {
		cur, err := drain(c, up)
		if err != nil {
			return nil, err
		}
		out, err := evalOpStrict(c, cur, op)
		if err != nil {
			return nil, err
		}
		if ex := c.st.explain; ex != nil {
			ex[op.id].calls++
			ex[op.id].in += int64(len(cur))
			ex[op.id].out += int64(len(out))
		}
		return seqCur(out), nil
	}}
}

// stepCursor streams an index-scan or downward axis step under the
// segment-gating protocol: the upstream CONTEXT list (small) is
// materialized and verified as a whole, then the result SEGMENTS
// (large) stream lazily one context at a time. Any verification
// failure routes the whole step through the strict executors before
// anything is emitted, so the streamed output is always exactly the
// strict output.
type stepCursor struct {
	c  *context
	up cursor
	op *pathOp

	opened bool
	ctxs   []*dom.Node // verified streaming contexts
	ci     int
	seg    cursor // current segment (or the whole strict result)

	// Per-(step, document) bindings, reused across segments.
	rt      resolvedTest
	bind    indexBinding
	bindDoc *core.Document

	// Per-cursor segment storage: segments stay valid while being
	// emitted, and nested evaluation (predicates) may run between pulls,
	// so the evalState-shared segment buffers cannot be used here. (The
	// axis candidates can: axisSegment consumes them before it returns.)
	idx    indexSeg
	segBuf Seq
	// sweep is the semi-join state of a lone semi-join predicate,
	// rebound per index segment.
	sweep sjSweep
}

func (sc *stepCursor) next() (Item, bool, error) {
	st := sc.c.st
	for {
		if err := st.checkCancel(); err != nil {
			return nil, false, err
		}
		if sc.seg != nil {
			it, ok, err := sc.seg.next()
			if err != nil {
				return nil, false, err
			}
			if ok {
				if st.explain != nil {
					st.explain[sc.op.id].out++
				}
				return it, true, nil
			}
			sc.seg = nil
		}
		if !sc.opened {
			sc.opened = true
			if err := sc.open(); err != nil {
				return nil, false, err
			}
			continue
		}
		if sc.ci < len(sc.ctxs) {
			n := sc.ctxs[sc.ci]
			sc.ci++
			seg, err := sc.openSeg(n, st.docFor(n))
			if err != nil {
				return nil, false, err
			}
			sc.seg = seg
			continue
		}
		return nil, false, nil
	}
}

// open drains the upstream context list and decides the route: lazy
// per-context segments when the whole chain verifies, the strict
// executor otherwise (which also reproduces the reference errors for
// atomic items, constructed nodes and interleaving-prone shapes).
func (sc *stepCursor) open() error {
	c := sc.c
	cur, err := drain(c, sc.up)
	if err != nil {
		return err
	}
	if ex := c.st.explain; ex != nil {
		ex[sc.op.id].calls++
		ex[sc.op.id].in += int64(len(cur))
	}
	if ctxs, ok := sc.streamable(cur); ok {
		sc.ctxs = ctxs
		return nil
	}
	out, err := evalOpStrict(c, cur, sc.op)
	if err != nil {
		return err
	}
	// The strict result streams through seg; out_rows accrues per
	// emitted item either way, so partial drains report what was
	// actually produced.
	sc.seg = seqCur(out)
	sc.ctxs = nil
	return nil
}

// streamable verifies the whole context chain for lazy segment
// emission (see the file comment for the case analysis).
func (sc *stepCursor) streamable(cur Seq) ([]*dom.Node, bool) {
	ctxs := make([]*dom.Node, len(cur))
	var prev *dom.Node
	for i, it := range cur {
		n, ok := it.(*dom.Node)
		if !ok || !sc.verifyCtx(n) {
			return nil, false
		}
		if prev != nil && !sc.verifyPair(prev, n) {
			return nil, false
		}
		ctxs[i] = n
		prev = n
	}
	return ctxs, true
}

// verifyCtx checks that a context node can stream: an element (or the
// shared root) carrying a document ordinal.
func (sc *stepCursor) verifyCtx(n *dom.Node) bool {
	d := sc.c.st.docFor(n)
	if n == d.Root {
		return true
	}
	if n.Kind != dom.Element {
		return false
	}
	_, ok := d.OrdinalOf(n)
	return ok
}

// verifyPair proves segment a cannot interleave with (or duplicate
// into) any segment at or after b (see the file comment).
func (sc *stepCursor) verifyPair(a, b *dom.Node) bool {
	st := sc.c.st
	da, db := st.docFor(a), st.docFor(b)
	if da != db || a == da.Root || b == da.Root {
		return false
	}
	if sc.op.s.axis == core.AxisSelf {
		// Segments are the contexts themselves: ascending context order
		// is the whole proof.
		return dom.Compare(a, b) < 0
	}
	kind := sc.op.s.test.kind
	if sc.op.kind == opIndexScan {
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
			// Single-kind tests that cannot select shared leaves:
			// segments stay within their hierarchy's document-order
			// block. Leaf-capable tests are excluded — hierarchies
			// share leaves, so cross-hierarchy segments may overlap.
			return true
		}
	}
	return false
}

// openSeg opens the segment cursor for one verified context node: a
// lazy index segment, or a materialized axis-step segment (bounded by
// the axis fan-out; descendant name tests run as index scans instead).
func (sc *stepCursor) openSeg(n *dom.Node, d *core.Document) (cursor, error) {
	if sc.op.kind == opIndexScan {
		return sc.indexSegment(n, d)
	}
	out, ordered, err := axisSegment(sc.c, sc.segBuf[:0], d, n, sc.op.s, &sc.rt)
	if err != nil {
		return nil, err
	}
	sc.segBuf = out // keep the grown buffer for the next segment
	if !ordered {
		// Unreachable for document nodes on the downward axes; keep the
		// strict engine's stable order as a safety net.
		out = sortDedupe(out)
	}
	return seqCur(out), nil
}

// indexSegment opens one context's index-scan segment as a lazy run
// cursor: candidates stream straight out of the structural name index.
// The segment cursor is the step cursor's own, reused per context: it
// is exhausted before the next context's segment is opened.
func (sc *stepCursor) indexSegment(n *dom.Node, d *core.Document) (cursor, error) {
	c, s := sc.c, sc.op.s
	if sc.bindDoc != d {
		sc.bind, sc.bindDoc = resolveIndexBinding(d, s), d
	}
	preds, ok, err := indexSegment(&sc.idx, d, n, s, &sc.bind)
	if err != nil {
		return nil, err
	}
	if !ok {
		return emptyCur, nil
	}
	size := sc.idx.total()
	switch len(preds) {
	case 0:
		return &sc.idx, nil
	case 1:
		if sj, ok := preds[0].(*pSemiJoin); ok {
			return &semiJoinCursor{inner: &sc.idx, e: sj, c: c, sw: &sc.sweep, size: size}, nil
		}
		// Single predicate: stream candidates with exact (pos, size) —
		// the candidate count is known from the run lengths, so even
		// last() works without materializing.
		return &predCursor{inner: &sc.idx, pr: preds[0], c: c, size: size}, nil
	}
	// Multiple predicates chain position semantics through the
	// survivors of each stage; materialize the segment.
	items, err := applyPredicatesInPlace(c, sc.idx.appendTo(nil), preds)
	if err != nil {
		return nil, err
	}
	return seqCur(items), nil
}
