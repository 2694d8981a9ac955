package main

// The traced run: the same request list replayed in-process through the
// layers' public functions, with a span around each call. Spans are
// recorded by the benchmark around calls into the layers, not inside
// the program; the layers are named after the repository's modules.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"mhxquery/internal/collection"
	"mhxquery/internal/xquery"
)

type spanName uint8

const (
	spRequest spanName = iota
	spDecode
	spCompile
	spResolve
	spPlan
	spExecute
	spSerialize
	spEncode
	spFanout
	spUpdate
	spOpen
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"request", "mhserve.decode", "collection.compile", "collection.resolve",
	"xquery.plan", "xquery.execute", "xquery.serialize", "mhserve.encode",
	"collection.fanout", "collection.update", "store.open",
}

// span is one timed call. Every child of a request span is a direct
// child, and children run one after another, so a span's self time is
// its duration minus its children's.
type span struct {
	trace      int64 // request index; negative for set-up
	id, parent int32
	name       spanName
	start, end int64 // ns since the run's epoch
}

// tracer records one client's spans in memory. With on unset it records
// nothing and reads no clock.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	trace int64
	next  int32
}

func (t *tracer) now() int64 {
	if !t.on {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// begin opens request trace id and returns its start.
func (t *tracer) begin(id int64) int64 {
	t.trace, t.next = id, 1
	return t.now()
}

// child records a span of the current request from start to now, and
// returns now as the start of the next one.
func (t *tracer) child(name spanName, start int64) int64 {
	if !t.on {
		return 0
	}
	end := t.now()
	t.spans = append(t.spans, span{t.trace, t.next, 0, name, start, end})
	t.next++
	return end
}

// finish records the request span itself.
func (t *tracer) finish(start int64) {
	if t.on {
		t.spans = append(t.spans, span{t.trace, 0, -1, spRequest, start, t.now()})
	}
}

// inproc performs ops in-process against an opened collection, doing
// what mhserve's handlers do for the same request.
type inproc struct {
	coll    *collection.Collection
	tracers []*tracer
}

func (ip *inproc) do(c int, id int64, o *op) ([]byte, error) {
	tr := ip.tracers[c]
	ctx := context.Background()
	start := tr.begin(id)
	t := start
	var body []byte
	if o.kind == opUpdate {
		var req updateRequest
		if err := json.Unmarshal(o.body, &req); err != nil {
			return nil, err
		}
		t = tr.child(spDecode, t)
		nd, _, err := ip.coll.UpdateContext(ctx, req.Doc, req.Update)
		if err != nil {
			return nil, err
		}
		t = tr.child(spUpdate, t)
		resp := updateResponse{Doc: req.Doc}
		resp.Info.TextBytes = len(nd.Text)
		if body, err = json.Marshal(resp); err != nil {
			return nil, err
		}
		tr.child(spEncode, t)
		tr.finish(start)
		return body, nil
	}

	var req queryRequest
	if err := json.Unmarshal(o.body, &req); err != nil {
		return nil, err
	}
	t = tr.child(spDecode, t)
	render := xquery.Serialize
	if req.Format == "text" {
		render = xquery.SerializeText
	}
	if req.Doc == "" {
		results, err := ip.coll.QueryAllLimit(ctx, req.Query, req.Collection, o.limit)
		if err != nil {
			return nil, err
		}
		t = tr.child(spFanout, t)
		resp := queryResponse{Results: make([]resultRow, len(results))}
		for i, r := range results {
			resp.Results[i].Doc = r.Name
			if r.Err != nil {
				resp.Results[i].Error = r.Err.Error()
				continue
			}
			out := render(r.Seq)
			resp.Results[i].Result = &out
		}
		t = tr.child(spSerialize, t)
		if body, err = json.Marshal(resp); err != nil {
			return nil, err
		}
		tr.child(spEncode, t)
		tr.finish(start)
		return body, nil
	}

	q, err := ip.coll.Compile(req.Query)
	if err != nil {
		return nil, err
	}
	t = tr.child(spCompile, t)
	d, err := ip.coll.ResolveDoc(req.Doc)
	if err != nil {
		return nil, err
	}
	t = tr.child(spResolve, t)
	pl := q.PlanFor(d)
	t = tr.child(spPlan, t)
	var seq xquery.Seq
	if o.limit > 0 || o.stream {
		seq, err = pl.Stream(ctx, d, nil, ip.coll).Take(o.limit)
	} else {
		seq, err = pl.EvalContext(ctx, d, nil, ip.coll)
	}
	if err != nil {
		return nil, err
	}
	t = tr.child(spExecute, t)
	if o.stream {
		items := make([]string, len(seq))
		for i, it := range seq {
			items[i] = render(xquery.Seq{it})
		}
		t = tr.child(spSerialize, t)
		for _, it := range items {
			row, err := json.Marshal(streamRow{Doc: req.Doc, Item: it})
			if err != nil {
				return nil, err
			}
			body = append(append(body, row...), '\n')
		}
	} else {
		out := render(seq)
		t = tr.child(spSerialize, t)
		if body, err = json.Marshal(queryResponse{Results: []resultRow{{Doc: req.Doc, Result: &out}}}); err != nil {
			return nil, err
		}
	}
	tr.child(spEncode, t)
	tr.finish(start)
	return body, nil
}

// tracePhase opens a fresh copy of the prepared directory in-process,
// runs the set-up probes traced, warms up, and replays the start of the
// request list with the HTTP run's client count twice: with spans off,
// then on. It writes the spans file and returns the per-layer metrics.
func (r *run) tracePhase(h *httpRun) (map[string]metric, error) {
	dir := r.prepDir + "-inproc"
	if err := copyDir(r.prepDir, dir); err != nil {
		return nil, err
	}
	epoch := time.Now()
	ip := &inproc{tracers: make([]*tracer, r.clients)}
	for i := range ip.tracers {
		ip.tracers[i] = &tracer{on: true, epoch: epoch}
	}
	coll, err := collection.Open(dir, collection.Options{})
	if err != nil {
		return nil, err
	}
	defer coll.Close()
	open := time.Since(epoch)
	ip.tracers[0].spans = append(ip.tracers[0].spans, span{-1, 0, -1, spOpen, 0, int64(open)})
	openMs := float64(open) / 1e6
	rec := coll.Recovery()
	ip.coll = coll
	ops, b := r.b.ops, r.b
	one := func(trace int64, k int32) time.Duration {
		t0 := time.Now()
		body, err := ip.do(0, trace, &ops[k])
		d := time.Since(t0)
		ok := err == nil && check(&ops[k], body)
		r.t.add([]sample{{op: k, ok: ok}})
		return d
	}

	// Set-up probes, traced under negative IDs: per document a
	// first-touch and a warm cold query, one content-preserving update
	// and the damaged-word fan-out.
	s0 := coll.Metrics().Snapshot()
	var materialize []float64
	id := int64(-2)
	for i := range r.docs {
		first := one(id, r.cold[i])
		warm := one(id-1, r.cold[i])
		materialize = append(materialize, float64(first-warm)/1e6)
		one(id-2, r.probeUpdates[i])
		one(id-3, r.probeFanout)
		id -= 4
	}
	s1 := coll.Metrics().Snapshot()

	setOn := func(on bool) {
		for _, t := range ip.tracers {
			t.on = on
		}
	}
	setOn(false)
	distinct := b.distinctReads()
	warm, _ := closedLoop(r.clients, ops, distinct, untilCount(int64(len(distinct))), ip.do)
	r.t.add(warm)
	if r.cfg.warmup > 0 {
		warm, _ = closedLoop(r.clients, ops, b.list, untilTime(time.Now().Add(r.cfg.warmup)), ip.do)
		r.t.add(warm)
	}
	// Each replay stops after the HTTP window's request count, or after
	// as long as that window lasted, whichever comes first, so a traced
	// run takes at most about three windows.
	replay := func() []sample {
		n, deadline := int64(h.measured), time.Now().Add(h.elapsed)
		stop := func(i int64) bool { return i >= n || !time.Now().Before(deadline) }
		samples, _ := closedLoop(r.clients, ops, b.list, stop, ip.do)
		r.t.add(samples)
		return samples
	}
	untraced := replay()
	s2 := coll.Metrics().Snapshot()
	setOn(true)
	traced := replay()
	s3 := coll.Metrics().Snapshot()

	rows, items, err := r.explainRows(coll)
	if err != nil {
		return nil, err
	}
	var spans []span
	for _, t := range ip.tracers {
		spans = append(spans, t.spans...)
	}
	if err := writeSpans(r.cfg.spans, spans); err != nil {
		return nil, err
	}

	// Span durations by name, and the workload's share of request time
	// spent in execution (replayed requests only, not set-up probes). A
	// fan-out span counts as execution: it wraps the per-document
	// evaluations.
	durs := make([][]float64, numSpanNames)
	var execTime, reqTotal, updateSec float64
	for _, s := range spans {
		d := float64(s.end - s.start)
		durs[s.name] = append(durs[s.name], d)
		switch {
		case s.name == spUpdate:
			updateSec += d / 1e9
		case s.trace < 0:
		case s.name == spExecute || s.name == spFanout:
			execTime += d
		case s.name == spRequest:
			reqTotal += d
		}
	}
	p := func(name spanName, q, scale float64) float64 {
		return percentile(sortedFloats(durs[name]), q) / scale
	}
	untracedP50 := percentile(millis(sampleLats(untraced)), 0.5)
	tracedP50 := percentile(millis(sampleLats(traced)), 0.5)
	untracedReads, _ := latencies(ops, untraced)
	delta := func(key string) float64 { return (s1[key] - s0[key]) + (s3[key] - s2[key]) }
	fsyncSec := delta("mhx_wal_fsync_seconds_sum")
	appends := delta("mhx_wal_appends_total")
	hd := func(key string) float64 { return h.after[key] - h.before[key] }
	cache := func(name string) float64 {
		hit := hd(`mhx_cache_requests_total{cache="` + name + `",result="hit"}`)
		miss := hd(`mhx_cache_requests_total{cache="` + name + `",result="miss"}`)
		return ratio(hit, hit+miss)
	}
	patched := hd(`mhx_index_maintenance_total{outcome="patched"}`)
	parallel := hd("mhx_query_parallel_queries_total")

	return map[string]metric{
		"mhserve.transport_ms":             {h.readP50ms - percentile(millis(untracedReads), 0.5), "ms"},
		"mhserve.decode_us":                {p(spDecode, 0.5, 1e3), "us"},
		"mhserve.encode_us":                {p(spEncode, 0.5, 1e3), "us"},
		"collection.compile_us":            {p(spCompile, 0.5, 1e3), "us"},
		"collection.compile_hit_rate":      {cache("compile"), "fraction"},
		"collection.plan_hit_rate":         {cache("plan"), "fraction"},
		"collection.fanout_ms":             {p(spFanout, 0.5, 1e6), "ms"},
		"collection.update_ms":             {p(spUpdate, 0.5, 1e6), "ms"},
		"collection.update_p99_ms":         {p(spUpdate, 0.99, 1e6), "ms"},
		"xquery.plan_us":                   {p(spPlan, 0.5, 1e3), "us"},
		"xquery.execute_ms":                {p(spExecute, 0.5, 1e6), "ms"},
		"xquery.execute_p99_ms":            {p(spExecute, 0.99, 1e6), "ms"},
		"xquery.execute_share":             {ratio(execTime, reqTotal), "fraction"},
		"xquery.serialize_us":              {p(spSerialize, 0.5, 1e3), "us"},
		"xquery.rows_per_result":           {ratio(rows, items), "rows"},
		"core.materialize_ms":              {median(materialize), "ms"},
		"core.nameindex_builds":            {hd("mhx_nameindex_builds_total"), "count"},
		"core.index_patched_frac":          {ratio(patched, patched+hd(`mhx_index_maintenance_total{outcome="lazy_rebuild"}`)), "fraction"},
		"sched.parallel_query_frac":        {ratio(parallel, hd("mhx_query_seconds_count")), "fraction"},
		"sched.morsels_per_parallel_query": {ratio(hd("mhx_query_morsels_total"), parallel), "count"},
		"wal.fsync_ms":                     {ratio(fsyncSec, delta("mhx_wal_fsync_seconds_count")) * 1e3, "ms"},
		"wal.commits_per_fsync":            {ratio(appends, delta("mhx_wal_syncs_total")), "count"},
		"wal.bytes_per_commit":             {ratio(delta("mhx_wal_bytes_total"), appends), "B"},
		"wal.fsync_share":                  {ratio(fsyncSec, updateSec), "fraction"},
		"store.open_ms":                    {openMs, "ms"},
		"store.replay_records_per_s":       {ratio(float64(rec.Replayed), rec.Elapsed.Seconds()), "1/s"},
		"store.snapshots":                  {hd("mhx_snapshots_total"), "count"},
		"store.disk_mb":                    {h.diskMB, "MB"},
		"bench.client_cpu_frac":            {h.cpuFrac, "fraction"},
		"trace.overhead_frac":              {ratio(tracedP50-untracedP50, untracedP50), "fraction"},
	}, nil
}

// explainRows runs EXPLAIN once per distinct (query, document) pair of
// the request list and returns the operators' total output rows and the
// total result items: how many rows the plans produce per answer item.
func (r *run) explainRows(coll *collection.Collection) (rows, items float64, err error) {
	var sum func(e *xquery.ExplainOp) int64
	sum = func(e *xquery.ExplainOp) int64 {
		n := e.OutRows
		for _, k := range e.Children {
			n += sum(k)
		}
		return n
	}
	for _, k := range r.b.distinctReads() {
		o := &r.b.ops[k]
		docs := []string{o.doc}
		if o.kind == opFanout {
			docs = coll.Names()
		}
		for _, doc := range docs {
			seq, tree, _, err := coll.ExplainDoc(doc, o.src)
			if err != nil {
				return 0, 0, fmt.Errorf("explain %q on %s: %w", o.src, doc, err)
			}
			rows += float64(sum(tree))
			items += float64(len(seq))
		}
	}
	return rows, items, nil
}

func sampleLats(samples []sample) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, s := range samples {
		out[i] = s.lat
	}
	return out
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"trace_id":%d,"span_id":%d,"parent_id":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.trace, s.id, s.parent, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
