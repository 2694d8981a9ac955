package collection

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mhxquery/internal/core"
	"mhxquery/internal/xquery"
)

// TestUpdatesReleaseSupersededVersions checks that the compile cache
// keeps no superseded document version alive. It warms the cache with
// an index-scan and an analyze-string query, then commits a long run of
// edits that keep the hierarchy layout, each followed by the same
// queries. Every version but the current one must become unreachable: a
// cached query or plan that referenced a document it ran against would
// pin that version. Every version runs the same plan.
func TestUpdatesReleaseSupersededVersions(t *testing.T) {
	const updates = 300
	c := New(Options{})
	if _, err := c.Put("doc", genDoc(t, 7, 200)); err != nil {
		t.Fatal(err)
	}
	queries := []struct{ src, op string }{
		{`count(//w[overlapping::line])`, "index-scan"},
		{`count(analyze-string((//w)[2], "e")/child::m)`, "analyze-string()"},
	}
	plans := make([]*xquery.Plan, len(queries))
	for i, q := range queries {
		cq, err := c.Compile(q.src)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := c.Get("doc")
		plans[i] = cq.PlanFor(d)
		_, plan, _, err := c.ExplainDoc("doc", q.src)
		if err != nil {
			t.Fatalf("%s: %v", q.src, err)
		}
		if !hasOp(plan, q.op) {
			t.Fatalf("%s: plan lacks a %s operator", q.src, q.op)
		}
	}

	// Count the versions still reachable: a finalizer per version
	// decrements the count once the collector frees it.
	var live atomic.Int64
	track := func(d *core.Document) {
		live.Add(1)
		runtime.SetFinalizer(d, func(*core.Document) { live.Add(-1) })
	}
	if d, ok := c.Get("doc"); ok {
		track(d)
	}
	for i := 0; i < updates; i++ {
		nd, _, err := c.Update("doc", `rename node (//w)[1] as "w"`)
		if err != nil {
			t.Fatal(err)
		}
		track(nd)
		for _, q := range queries {
			if _, err := c.Query("doc", q.src); err != nil {
				t.Fatalf("%s after update %d: %v", q.src, i, err)
			}
		}
	}

	// Only the current version, which c still holds, should survive.
	// Finalizers run after a collection cycle, so give them a few.
	deadline := time.Now().Add(10 * time.Second)
	for live.Load() > 1 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := live.Load(); n > 1 {
		t.Fatalf("%d of %d document versions still reachable after GC, want only the current one", n, updates+1)
	}
	for i, q := range queries {
		cq, err := c.Compile(q.src)
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := c.Get("doc"); cq.PlanFor(d) != plans[i] {
			t.Errorf("%s: the current version runs a different plan than the first: versions must share plans", q.src)
		}
	}
}

// hasOp reports whether the operator tree contains an operator named op
// (or, for calls, whose detail is op).
func hasOp(n *xquery.ExplainOp, op string) bool {
	if n.Op == op || n.Detail == op {
		return true
	}
	for _, k := range n.Children {
		if hasOp(k, op) {
			return true
		}
	}
	return false
}
