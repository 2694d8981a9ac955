package collection

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunPoolParallelism proves the pool really runs jobs concurrently:
// with 4 workers and 4 jobs that each block on a shared barrier until
// all 4 have started, the pool completes only if all jobs overlap in
// time. A sequential pool would deadlock (caught by the timeout).
func TestRunPoolParallelism(t *testing.T) {
	const n = 4
	var barrier sync.WaitGroup
	barrier.Add(n)
	done := make(chan []Result, 1)
	go func() {
		done <- New(Options{Workers: n}).runPool(n, func(i int) Result {
			barrier.Done()
			barrier.Wait() // blocks until every job has started
			return Result{Name: fmt.Sprint(i)}
		})
	}()
	select {
	case results := <-done:
		for i, r := range results {
			if r.Name != fmt.Sprint(i) {
				t.Fatalf("result %d = %q", i, r.Name)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pool did not run jobs concurrently (barrier deadlock)")
	}
}

// TestRunPoolBounded proves the pool never exceeds its worker bound.
func TestRunPoolBounded(t *testing.T) {
	const workers, jobs = 3, 20
	var running, peak atomic.Int32
	New(Options{Workers: workers}).runPool(jobs, func(i int) Result {
		cur := running.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		running.Add(-1)
		return Result{}
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs, bound is %d", p, workers)
	}
}

// TestRunPoolOrdering: results come back indexed by job, not by
// completion order.
func TestRunPoolOrdering(t *testing.T) {
	results := New(Options{Workers: 4}).runPool(12, func(i int) Result {
		time.Sleep(time.Duration(12-i) * time.Millisecond) // later jobs finish first
		return Result{Name: fmt.Sprint(i)}
	})
	for i, r := range results {
		if r.Name != fmt.Sprint(i) {
			t.Fatalf("result %d = %q, want completion-order independence", i, r.Name)
		}
	}
}

// TestRunPoolSmall covers the degenerate sizes.
func TestRunPoolSmall(t *testing.T) {
	if got := New(Options{Workers: 4}).runPool(0, func(int) Result { panic("no jobs") }); len(got) != 0 {
		t.Fatalf("0 jobs: %v", got)
	}
	got := New(Options{Workers: 1}).runPool(3, func(i int) Result { return Result{Name: fmt.Sprint(i)} })
	if len(got) != 3 || got[2].Name != "2" {
		t.Fatalf("sequential path: %v", got)
	}
}

// TestStreamAllNameOrder checks the collection stream: items come
// grouped by document in name order, per-document errors do not abort
// the remaining documents, a consumer that stops stops the stream, and
// a consumed stream pushes nothing.
func TestStreamAllNameOrder(t *testing.T) {
	c := New(Options{})
	for _, name := range []string{"bb", "aa", "cc"} {
		if _, err := c.Put(name, genDoc(t, 3, 8)); err != nil {
			t.Fatal(err)
		}
	}
	events := func(src string, stop func([]Event) bool) []Event {
		rows, err := c.StreamAll(context.Background(), src, "")
		if err != nil {
			t.Fatal(err)
		}
		var evs []Event
		rows.Each(func(ev Event) bool {
			evs = append(evs, ev)
			return !stop(evs)
		})
		rows.Each(func(ev Event) bool {
			t.Errorf("%s: a consumed stream pushed %v", src, ev)
			return true
		})
		return evs
	}
	never := func([]Event) bool { return false }

	var names []string
	for _, ev := range events(`/descendant::w`, never) {
		if ev.Err != nil {
			t.Fatalf("%s: %v", ev.Name, ev.Err)
		}
		if len(names) == 0 || names[len(names)-1] != ev.Name {
			names = append(names, ev.Name)
		}
	}
	if fmt.Sprint(names) != "[aa bb cc]" {
		t.Fatalf("document order = %v", names)
	}

	// Per-document errors do not abort the remaining documents.
	errs, docs := 0, 0
	for _, ev := range events(`/descendant::w('nope')`, never) {
		docs++
		if ev.Err != nil {
			errs++
		}
	}
	if errs != 3 || docs != 3 {
		t.Fatalf("errs=%d docs=%d, want 3/3", errs, docs)
	}

	// A consumer that stops gets a prefix of the full stream, per-document
	// errors included.
	for _, src := range []string{`/descendant::w`, `/descendant::w('nope')`} {
		want := events(src, never)
		got := events(src, func(evs []Event) bool { return len(evs) == len(want)-1 })
		if fmt.Sprint(got) != fmt.Sprint(want[:len(want)-1]) {
			t.Fatalf("%s: stopped stream pushed %v, want %v", src, got, want[:len(want)-1])
		}
	}
}

// TestQueryAllLimit checks the global fan-out budget: name-order
// truncation, later rows left empty.
func TestQueryAllLimit(t *testing.T) {
	c := New(Options{})
	for _, name := range []string{"a", "b", "c"} {
		if _, err := c.Put(name, genDoc(t, 4, 8)); err != nil {
			t.Fatal(err)
		}
	}
	all, err := c.QueryAll(`/descendant::w`, "")
	if err != nil {
		t.Fatal(err)
	}
	perDoc := len(all[0].Seq)
	if perDoc < 2 {
		t.Fatalf("fixture too small: %d words/doc", perDoc)
	}
	limit := perDoc + 1 // all of a, one item of b, nothing of c
	results, err := c.QueryAllLimit(context.Background(), `/descendant::w`, "", limit)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(results[0].Seq); got != perDoc {
		t.Fatalf("row a = %d items, want %d", got, perDoc)
	}
	if got := len(results[1].Seq); got != 1 {
		t.Fatalf("row b = %d items, want 1", got)
	}
	if got := len(results[2].Seq); got != 0 {
		t.Fatalf("row c = %d items, want 0", got)
	}
}
