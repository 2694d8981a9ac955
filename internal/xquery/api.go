package xquery

import (
	stdctx "context"
	"time"

	"mhxquery/internal/core"
)

// Query is a compiled extended-XQuery expression. A Query is immutable
// and safe for concurrent evaluation against any number of documents.
// Evaluation is plan-driven: Compile lowers the whole AST to physical
// operators (plan.go) once, and every document, version and layout the
// query meets shares that one plan; execution pulls results through
// cursors, so early-exit consumers (and Stream with a limit) stop the
// pipeline after the items they need.
type Query struct {
	src  string
	body expr
	// strictOnly marks queries containing analyze-string, which must
	// evaluate in interpreter order (lower.go).
	strictOnly bool

	plan *Plan
}

// Resolver supplies the documents named by the doc() and collection()
// functions. Implementations must be safe for concurrent use; the
// returned documents are evaluated against but never mutated.
type Resolver interface {
	// ResolveDoc returns the document registered under name.
	ResolveDoc(name string) (*core.Document, error)
	// ResolveCollection returns the documents whose names match the
	// glob pattern (path.Match syntax), in stable name order. The empty
	// pattern selects every document.
	ResolveCollection(pattern string) ([]*core.Document, error)
}

// Compile parses an extended-XQuery expression.
func Compile(src string) (*Query, error) {
	body, err := parseQuery(src)
	if err != nil {
		return nil, err
	}
	return newQuery(src, body), nil
}

// newQuery wraps a parsed expression as a compiled query and lowers its
// one plan.
func newQuery(src string, body expr) *Query {
	q := &Query{src: src, body: body, strictOnly: hasAnalyzeString(body)}
	q.plan = newPlan(q, planForce{})
	return q
}

// MustCompile is Compile panicking on error; for fixtures and tests.
func MustCompile(src string) *Query {
	q, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return q
}

// Source returns the query text.
func (q *Query) Source() string { return q.src }

// Eval evaluates the query against a KyGODDAG document. The initial
// context item is the shared root. Temporary hierarchies created by
// analyze-string live in overlay documents private to this evaluation and
// are discarded when it returns (Definition 4(5)); the input document is
// never mutated.
func (q *Query) Eval(d *core.Document) (Seq, error) {
	return q.EvalWithVars(d, nil)
}

// EvalWithVars evaluates the query with externally bound variables.
func (q *Query) EvalWithVars(d *core.Document, vars map[string]Seq) (Seq, error) {
	return q.EvalWithResolver(d, vars, nil)
}

// EvalWithResolver evaluates the query with externally bound variables
// and a document resolver backing the doc() and collection() functions.
// With a nil resolver those functions raise FODC0002/FODC0004.
func (q *Query) EvalWithResolver(d *core.Document, vars map[string]Seq, r Resolver) (Seq, error) {
	return q.plan.eval(nil, d, vars, r, nil)
}

// EvalContext is EvalWithResolver under a cancellation context: when
// ctx is canceled (deadline, client disconnect) the evaluation stops
// within a bounded number of items and returns an MHXQ0002 error.
func (q *Query) EvalContext(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver) (Seq, error) {
	return q.plan.eval(ctx, d, vars, r, nil)
}

// PlanFor returns the query's physical plan, the one Compile lowered.
// The plan does not depend on d: it is immutable, safe for concurrent
// evaluation and holds no document, and its scan operators bind names
// to whichever document they run on, so every document, version and
// analyze-string overlay shares it.
func (q *Query) PlanFor(d *core.Document) *Plan { return q.plan }

// Eval evaluates the plan's query against d with externally bound
// variables and an optional resolver.
func (pl *Plan) Eval(d *core.Document, vars map[string]Seq, r Resolver) (Seq, error) {
	return pl.eval(nil, d, vars, r, nil)
}

// EvalContext is Eval under a cancellation context.
func (pl *Plan) EvalContext(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver) (Seq, error) {
	return pl.eval(ctx, d, vars, r, nil)
}

// eval is the strict (fully materializing) entry point: the lowered
// program evaluates through the pnode eval route, which engages
// streaming only where an early exit exists to exploit (filters,
// exists/empty/count, quantifiers). Stream is the item-at-a-time entry
// point.
func (pl *Plan) eval(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver, counts []opCard) (Seq, error) {
	return pEval(pl.prog, pl.newEvalContext(ctx, d, vars, r, counts))
}

func (pl *Plan) newEvalContext(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver, counts []opCard) *context {
	st := &evalState{doc: d, resolver: r, ctx: ctx, plan: pl, explain: counts}
	c := &context{st: st, item: d.Root, pos: 1, size: 1}
	for name, val := range vars {
		c = c.bind(name, val)
	}
	return c
}

// Stream is a lazy, pull-based result iterator over one evaluation.
// Items are produced on demand: abandoning a Stream after n items does
// only the work those n items required (no Close is needed — cursors
// own no resources). A Stream is single-use and not safe for concurrent
// use.
type Stream struct {
	c    *context
	cur  cursor
	err  error
	done bool
	n    int
}

// Stream starts a streaming evaluation. ctx may be nil (uncancellable).
func (pl *Plan) Stream(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver) *Stream {
	return pl.stream(ctx, d, vars, r, nil)
}

// Stream starts a streaming evaluation through the query's plan.
func (q *Query) Stream(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver) *Stream {
	return q.plan.Stream(ctx, d, vars, r)
}

func (pl *Plan) stream(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver, counts []opCard) *Stream {
	c := pl.newEvalContext(ctx, d, vars, r, counts)
	return &Stream{c: c, cur: popen(pl.prog, c)}
}

// Next returns the next result item. After an error or exhaustion it
// keeps returning (nil, false, err).
func (s *Stream) Next() (Item, bool, error) {
	if s.err != nil || s.done {
		return nil, false, s.err
	}
	// Poll cancellation here too: producers whose next() never loops
	// (range cursors, literal sequences) would otherwise let a
	// top-level drain outrun the deadline.
	if err := s.c.st.checkCancel(); err != nil {
		s.err = err
		return nil, false, err
	}
	it, ok, err := s.cur.next()
	if err != nil {
		s.err = err
		return nil, false, err
	}
	if !ok {
		s.done = true
		return nil, false, nil
	}
	s.n++
	return it, true, nil
}

// Count returns how many items Next has produced so far.
func (s *Stream) Count() int { return s.n }

// Take drains up to limit items (all remaining when limit <= 0).
// Evaluation stops once the limit is produced — the upstream operators
// do no further work.
func (s *Stream) Take(limit int) (Seq, error) {
	var out Seq
	for limit <= 0 || len(out) < limit {
		it, ok, err := s.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, it)
	}
	return out, nil
}

// Explain evaluates the query against d with per-operator cardinality
// instrumentation and returns the result together with the operator
// tree (index-vs-scan decisions plus observed cardinalities) covering
// the whole lowered query.
func (q *Query) Explain(d *core.Document, vars map[string]Seq, r Resolver) (Seq, *ExplainOp, error) {
	pl := q.plan
	counts := make([]opCard, pl.nOps)
	seq, err := pl.eval(nil, d, vars, r, counts)
	if err != nil {
		return nil, nil, err
	}
	return seq, pl.render(counts), nil
}

// evalAnalyze is eval with per-operator wall-time instrumentation
// enabled; it returns the result alongside the total evaluation wall
// time. Timing rides on the same explain slots as cardinality
// accounting, so the uninstrumented hot path stays untouched.
func (pl *Plan) evalAnalyze(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver, counts []opCard) (Seq, time.Duration, error) {
	c := pl.newEvalContext(ctx, d, vars, r, counts)
	c.st.timed = true
	start := time.Now()
	seq, err := pEval(pl.prog, c)
	return seq, time.Since(start), err
}

// ExplainAnalyze is Explain upgraded to a true EXPLAIN ANALYZE: the
// query actually runs, and the returned operator tree carries observed
// per-operator wall time (ExplainOp.Nanos, inclusive of children) in
// addition to the observed cardinalities. The root's Nanos is the total
// query wall time.
func (q *Query) ExplainAnalyze(d *core.Document, vars map[string]Seq, r Resolver) (Seq, *ExplainOp, error) {
	return q.ExplainAnalyzeContext(nil, d, vars, r)
}

// ExplainAnalyzeContext is ExplainAnalyze under a cancellation context.
func (q *Query) ExplainAnalyzeContext(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver) (Seq, *ExplainOp, error) {
	return q.plan.ExplainAnalyze(ctx, d, vars, r)
}

// ExplainAnalyze runs the plan with timing instrumentation and returns
// the result plus the analyzed operator tree. See Query.ExplainAnalyze.
func (pl *Plan) ExplainAnalyze(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver) (Seq, *ExplainOp, error) {
	counts := make([]opCard, pl.nOps)
	seq, total, err := pl.evalAnalyze(ctx, d, vars, r, counts)
	if err != nil {
		return nil, nil, err
	}
	root := pl.render(counts)
	root.Nanos = int64(total)
	return seq, root, nil
}

// StreamExplain is Stream with per-operator instrumentation: the
// returned render function may be called once the caller has pulled
// whatever it needs, yielding the cardinalities observed so far — the
// observable proof that a limited stream stopped the upstream operators
// early.
func (q *Query) StreamExplain(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver) (*Stream, func() *ExplainOp) {
	pl := q.plan
	counts := make([]opCard, pl.nOps)
	s := pl.stream(ctx, d, vars, r, counts)
	return s, func() *ExplainOp { return pl.render(counts) }
}

// EvalString compiles and evaluates src against d and serializes the
// result the way the paper prints query outputs.
func EvalString(d *core.Document, src string) (string, error) {
	q, err := Compile(src)
	if err != nil {
		return "", err
	}
	res, err := q.Eval(d)
	if err != nil {
		return "", err
	}
	return Serialize(res), nil
}
