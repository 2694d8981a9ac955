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
// query meets shares that one plan. Every operator pushes its result
// into its consumer (push.go), so early-exit consumers (Each with a
// yield that stops, Stream.Take with a limit) stop the pipeline after
// the items they need.
type Query struct {
	src  string
	body expr
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
	q := &Query{src: src, body: body}
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

// Each evaluates the query against d and pushes the result items to
// yield in order, stopping the evaluation once yield returns false:
// the work done is only what the items pushed so far required. It
// evaluates on the caller's goroutine. ctx may be nil (uncancellable).
func (q *Query) Each(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver, yield func(Item) bool) error {
	return q.plan.run(q.plan.newEvalContext(ctx, d, vars, r, nil), yield)
}

// run pushes the program's result into yield and reads a stop by
// yield as success. Only the operators poll cancellation, at the same
// points as in a collecting evaluation (eval).
func (pl *Plan) run(c *context, yield func(Item) bool) error {
	if err := pEach(pl.prog, c, yield); err != errStop {
		return err
	}
	return nil
}

// eval is the collecting entry point.
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

// Stream is one deferred evaluation whose result is pushed to its
// consumer: Each runs the evaluation on the caller's goroutine and
// stops it once yield returns false, so a consumer that stops after n
// items does only the work those n items required. A Stream is
// single-use: once consumed it pushes nothing and Each returns the
// first run's error. It is not safe for concurrent use.
//
// Cancellation is polled exactly as in EvalContext: a canceled ctx
// stops the evaluation with MHXQ0002 within a bounded number of items,
// because the operators' per-item loops poll it every cancelStride
// ticks. There is no end-of-run check, so an evaluation that finishes
// before its first poll, such as one producing a few items, completes
// without error on both routes.
type Stream struct {
	run func(yield func(Item) bool) error // nil once consumed
	err error
}

// Stream prepares a streaming evaluation. ctx may be nil
// (uncancellable).
func (pl *Plan) Stream(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver) *Stream {
	return pl.stream(ctx, d, vars, r, nil)
}

// Stream prepares a streaming evaluation through the query's plan.
func (q *Query) Stream(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver) *Stream {
	return q.plan.Stream(ctx, d, vars, r)
}

func (pl *Plan) stream(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver, counts []opCard) *Stream {
	c := pl.newEvalContext(ctx, d, vars, r, counts)
	return &Stream{run: func(yield func(Item) bool) error { return pl.run(c, yield) }}
}

// Each pushes the result items to yield in order until yield returns
// false, and consumes the stream.
func (s *Stream) Each(yield func(Item) bool) error {
	if run := s.run; run != nil {
		s.run = nil
		s.err = run(yield)
	}
	return s.err
}

// Take collects up to limit items (all when limit <= 0) and consumes
// the stream: evaluation stops once the limit is reached, so the
// upstream operators do no further work.
func (s *Stream) Take(limit int) (Seq, error) {
	var out Seq
	err := s.Each(func(it Item) bool {
		out = append(out, it)
		return limit <= 0 || len(out) < limit
	})
	if err != nil {
		return nil, err
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
	c := pl.newEvalContext(ctx, d, vars, r, counts)
	c.st.timed = true
	start := time.Now()
	seq, err := pEval(pl.prog, c)
	if err != nil {
		return nil, nil, err
	}
	root := pl.render(counts)
	root.Nanos = int64(time.Since(start))
	return seq, root, nil
}

// StreamExplain is Stream with per-operator instrumentation: the
// returned render function may be called at any point of the stream's
// consumption, inside its yield too, and yields the cardinalities
// observed so far — the observable proof that a limited stream stopped
// the upstream operators early.
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
