package collection

import (
	"context"
	"time"

	"mhxquery/internal/core"
	"mhxquery/internal/sched"
	"mhxquery/internal/xquery"
)

// Result is the outcome of evaluating one query against one member
// document during a fan-out.
type Result struct {
	// Name is the document's registry name.
	Name string
	// Doc is the document the evaluation ran against (the snapshot
	// member, even if the registry entry was concurrently replaced).
	Doc *core.Document
	// Seq is the query result; nil when Err is set.
	Seq xquery.Seq
	// Err is the per-document evaluation error, if any. One document
	// failing does not abort the fan-out.
	Err error
}

// QueryAll evaluates src once-compiled against every member document
// whose name matches pattern ("" = all), fanning evaluations out over a
// worker pool bounded by Options.Workers. Results are returned in
// document name order regardless of completion order. The whole
// fan-out — including doc()/collection() calls inside the query — sees
// one registry epoch: a concurrent Put neither blocks the fan-out nor
// joins it, in any of its rows.
func (c *Collection) QueryAll(src, pattern string) ([]Result, error) {
	return c.QueryAllLimit(context.Background(), src, pattern, 0)
}

// QueryAllLimit is QueryAll under a cancellation context and a global
// result budget: limit > 0 bounds the TOTAL number of items across the
// fan-out in document name order. Each worker evaluates its document
// capped at limit items (an upper bound for any single row), so no
// document is evaluated past what the budget can possibly use; a final name-order pass truncates to the global budget, leaving
// later rows empty once it is spent.
func (c *Collection) QueryAllLimit(ctx context.Context, src, pattern string, limit int) ([]Result, error) {
	q, err := c.Compile(src)
	if err != nil {
		return nil, err
	}
	v := c.view()
	names, docs, err := v.match(pattern)
	if err != nil {
		return nil, err
	}
	results := c.runPool(len(docs), func(i int) Result {
		return c.evalOne(ctx, q, v, names[i], docs[i], limit)
	})
	if limit > 0 {
		remaining := limit
		for i := range results {
			if results[i].Err != nil {
				continue
			}
			if len(results[i].Seq) > remaining {
				results[i].Seq = results[i].Seq[:remaining]
			}
			remaining -= len(results[i].Seq)
		}
	}
	return results, nil
}

// runPool runs jobs 0..n-1 with at most c.workers participants on the
// process-wide scheduler (internal/sched) shared by every collection.
// The whole job list is accounted up front, so mhx_fanout_queue_depth
// reads as "accepted but not yet started" and mhx_fanout_busy_workers
// as "currently evaluating" — whichever goroutine (caller or pool
// helper) runs the job, exactly one depth decrement and one busy
// increment/decrement pair fires per job.
func (c *Collection) runPool(n int, job func(int) Result) []Result {
	results := make([]Result, n)
	m := c.metrics
	m.queueDepth.Add(int64(n))
	sched.Default().ParallelFor(n, c.workers, func(i, slot int) {
		m.queueDepth.Dec()
		m.busyWorkers.Inc()
		results[i] = job(i)
		m.busyWorkers.Dec()
	})
	return results
}

// evalOne evaluates one fan-out row through the query's plan. With a
// limit the evaluation stops at the cap instead of running over the
// whole document.
func (c *Collection) evalOne(ctx context.Context, q *xquery.Query, v *view, name string, d *core.Document, limit int) Result {
	start := time.Now()
	seq, err := evalLimit(ctx, q, d, v, limit)
	if err != nil {
		return Result{Name: name, Doc: d, Err: err}
	}
	c.metrics.observeQuery(start)
	return Result{Name: name, Doc: d, Seq: seq}
}

// Event is one outcome of a collection stream: one result item of one
// document's evaluation, or a per-document error (which, like a
// QueryAll row error, does not abort the remaining documents).
type Event struct {
	// Name is the document's registry name.
	Name string
	// Doc is the document the item belongs to.
	Doc *core.Document
	// Item is the result item; nil when Err is set.
	Item xquery.Item
	// Err is the document's evaluation error, if any.
	Err error
}

// Rows is one query evaluated across member documents in name order,
// pushed to its consumer: document k+1's evaluation does not start
// until document k's is exhausted, and a consumer that stops (a
// satisfied limit, a disconnected client) stops all remaining work.
// Rows is single-use: Each consumes it. It is not safe for concurrent
// use.
type Rows struct {
	ctx   context.Context
	q     *xquery.Query
	v     *view
	names []string
	docs  []*core.Document
}

// StreamAll evaluates src across every member document whose name
// matches pattern ("" = all) as a name-order stream. Unlike QueryAll it
// trades fan-out parallelism for bounded memory: at most one document
// evaluates at a time and nothing is materialized beyond the item in
// flight.
func (c *Collection) StreamAll(ctx context.Context, src, pattern string) (*Rows, error) {
	q, err := c.Compile(src)
	if err != nil {
		return nil, err
	}
	v := c.view()
	names, docs, err := v.match(pattern)
	if err != nil {
		return nil, err
	}
	return &Rows{ctx: ctx, q: q, v: v, names: names, docs: docs}, nil
}

// Each pushes the events to yield in order, on the caller's goroutine,
// until yield returns false, and consumes the stream.
func (r *Rows) Each(yield func(Event) bool) {
	names, docs := r.names, r.docs
	r.names, r.docs = nil, nil
	for i, d := range docs {
		stopped := false
		err := r.q.Each(r.ctx, d, nil, r.v, func(it xquery.Item) bool {
			stopped = !yield(Event{Name: names[i], Doc: d, Item: it})
			return !stopped
		})
		if stopped || err != nil && !yield(Event{Name: names[i], Doc: d, Err: err}) {
			return
		}
	}
}
