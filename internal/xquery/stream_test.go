package xquery

import (
	stdctx "context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestExplainFLWORGolden locks the full lowered operator tree of a
// FLWOR query: EXPLAIN must render the whole query — clauses,
// predicates, calls — not collapse non-path expressions into opaque
// nodes.
func TestExplainFLWORGolden(t *testing.T) {
	q := MustCompile(`for $l in /descendant::line[xdescendant::w[string(.) = 'singallice'] or overlapping::w[string(.) = 'singallice']]
	                  where exists($l/overlapping::w)
	                  order by string-length(string($l)) descending
	                  return <hit n="{count($l/xdescendant::w)}">{string($l)}</hit>`)
	pl := q.PlanFor(corpus.MustBoethius())
	got, err := json.MarshalIndent(pl.Describe(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "explain_flwor.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if string(got) != string(want) {
		t.Errorf("explain tree changed (run with -update to regenerate):\n%s", got)
	}
	// Structural spot checks, so the golden cannot silently regress to
	// opaque nodes.
	var ops []string
	var walk func(op *ExplainOp)
	walk = func(op *ExplainOp) {
		ops = append(ops, op.Op)
		for _, k := range op.Children {
			walk(k)
		}
	}
	walk(pl.Describe())
	for _, want := range []string{"flwor", "for", "where", "order-by", "return", "index-scan", "call", "compare", "element", "exists-probe"} {
		found := false
		for _, op := range ops {
			if op == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("lowered tree lacks %q operator: %v", want, ops)
		}
	}
}

// TestStreamLimitStopsScan is the cardinality-observing proof of
// early exit: taking 3 items from //w — bare, or through a predicate
// every word passes — over a large document must leave the index scan
// having produced only those 3 items, not the whole run.
func TestStreamLimitStopsScan(t *testing.T) {
	d, err := corpus.Generate(corpus.Params{Seed: 5, Words: 600}).Document()
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{`//w`, `//w[string-length(string(.)) > 0]`} {
		q := MustCompile(src)
		total, err := q.Eval(d)
		if err != nil {
			t.Fatal(err)
		}
		if len(total) < 100 {
			t.Fatalf("%s: fixture too small: %d words", src, len(total))
		}

		s, render := q.StreamExplain(nil, d, nil, nil)
		if got, err := s.Take(3); err != nil || len(got) != 3 {
			t.Fatalf("%s: Take(3) = %d items, err=%v", src, len(got), err)
		}
		var scan *ExplainOp
		var walk func(op *ExplainOp)
		walk = func(op *ExplainOp) {
			if op.Op == "index-scan" {
				scan = op
			}
			for _, k := range op.Children {
				walk(k)
			}
		}
		walk(render())
		if scan == nil {
			t.Fatalf("%s: no index-scan operator in the plan", src)
		}
		if scan.OutRows != 3 {
			t.Fatalf("%s: index scan produced %d rows after a 3-item pull; early exit is broken (total %d)", src, scan.OutRows, len(total))
		}
		// Draining the rest must still deliver the full result.
		rest, err := drainStream(s)
		if err != nil {
			t.Fatal(err)
		}
		if 3+len(rest) != len(total) {
			t.Fatalf("%s: stream delivered %d items, want %d", src, 3+len(rest), len(total))
		}
	}

	// A semi-join predicate sweeps lazily: three matches cost the words
	// up to the third damaged one, not the whole run.
	dd, err := corpus.Generate(corpus.Params{Seed: 5, Words: 600, DamageRate: 0.2}).Document()
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompile(`//w[overlapping::dmg]`)
	total, err := q.Eval(dd)
	if err != nil {
		t.Fatal(err)
	}
	words := len(dd.HierarchyByName("structure").NameRun(dd.NameSymOf("w")))
	if len(total) < 10 || words < 500 {
		t.Fatalf("fixture too small: %d of %d words overlap damage", len(total), words)
	}
	s, render := q.StreamExplain(nil, dd, nil, nil)
	if got, err := s.Take(3); err != nil || len(got) != 3 {
		t.Fatalf("semi-join: Take(3) = %d items, err=%v", len(got), err)
	}
	scan := scanOp(render())
	if scan == nil || scan.OutRows >= int64(words/4) {
		t.Fatalf("semi-join: index scan = %+v after a 3-item pull over %d words; early exit is broken", scan, words)
	}
	rest, err := drainStream(s)
	if err != nil {
		t.Fatal(err)
	}
	if 3+len(rest) != len(total) {
		t.Fatalf("semi-join: stream delivered %d items, want %d", 3+len(rest), len(total))
	}
}

// TestStreamNestedLastStaysLazy checks that a predicate reading last()
// only in a nested focus leaves its own filter streaming: taking 3
// items from (//w)[exists((/descendant::w)[last()])] over a large
// document leaves the filter's base scan at 3 rows, while the nested
// filter, whose predicate does read last(), takes its whole base.
func TestStreamNestedLastStaysLazy(t *testing.T) {
	d, err := corpus.Generate(corpus.Params{Seed: 5, Words: 600}).Document()
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompile(`(//w)[exists((/descendant::w)[last()])]`)
	total, err := q.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(total) < 100 {
		t.Fatalf("fixture too small: %d words", len(total))
	}
	s, render := q.StreamExplain(nil, d, nil, nil)
	if got, err := s.Take(3); err != nil || len(got) != 3 {
		t.Fatalf("Take(3) = %d items, err=%v", len(got), err)
	}
	if scan := scanOp(render()); scan == nil || scan.OutRows != 3 {
		t.Fatalf("outer index scan = %+v after a 3-item pull; want 3 rows (total %d)", scan, len(total))
	}
	rest, err := drainStream(s)
	if err != nil {
		t.Fatal(err)
	}
	if 3+len(rest) != len(total) {
		t.Fatalf("stream delivered %d items, want %d", 3+len(rest), len(total))
	}
}

// TestStreamCancel checks context cancellation: a runaway query, and a
// predicate scan over a large document, stop with MHXQ0002 within a
// bounded number of items.
func TestStreamCancel(t *testing.T) {
	big, err := corpus.Generate(corpus.Params{Seed: 23, Words: 2000, DamageRate: 0.2, RestoreRate: 0.2}).Document()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := stdctx.WithCancel(stdctx.Background())
	cancel()
	for _, tc := range []struct {
		src string
		d   *core.Document
	}{
		{`count(1 to 100000000000)`, corpus.MustBoethius()},
		{`//w[string-length(string(.)) >= 0]`, big},
		{`//w[overlapping::dmg]`, big},
		{`count(//line[xdescendant::w[overlapping::dmg]])`, big},
	} {
		q := MustCompile(tc.src)
		_, err := q.EvalContext(ctx, tc.d, nil, nil)
		if err == nil {
			t.Fatalf("%s: canceled evaluation returned no error", tc.src)
		}
		xe, ok := err.(*Error)
		if !ok || xe.Code != "MHXQ0002" {
			t.Fatalf("%s: err = %v, want MHXQ0002", tc.src, err)
		}

		if _, err := drainStream(q.Stream(ctx, tc.d, nil, nil)); err == nil {
			t.Fatalf("%s: canceled stream drained without error", tc.src)
		} else if xe, ok := err.(*Error); !ok || xe.Code != "MHXQ0002" {
			t.Fatalf("%s: stream err = %v, want MHXQ0002", tc.src, err)
		}
	}
}

// scanOp returns the first index-scan operator of an EXPLAIN tree.
func scanOp(op *ExplainOp) *ExplainOp {
	if op.Op == "index-scan" {
		return op
	}
	for _, k := range op.Children {
		if f := scanOp(k); f != nil {
			return f
		}
	}
	return nil
}

// TestParallelCancellation checks cancellation that arrives in the
// middle of a predicate scan over a large document: the stream already
// delivering items stops with MHXQ0002 before the scan finishes.
func TestParallelCancellation(t *testing.T) {
	d, err := corpus.Generate(corpus.Params{Seed: 23, Words: 2000, DamageRate: 0.2, RestoreRate: 0.2}).Document()
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompile(`//w[string-length(string(.)) >= 0]`)
	total, err := q.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := stdctx.WithCancel(stdctx.Background())
	defer cancel()
	s := q.Stream(ctx, d, nil, nil)
	if got, err := s.Take(5); err != nil || len(got) != 5 {
		t.Fatalf("Take(5) = %d items, err=%v", len(got), err)
	}
	cancel()
	rest, err := drainStream(s)
	xe, ok := err.(*Error)
	if !ok || xe.Code != "MHXQ0002" {
		t.Fatalf("stream canceled mid-scan returned %v, want MHXQ0002", err)
	}
	if 5+len(rest) >= len(total) {
		t.Fatalf("stream canceled mid-scan delivered all %d items", len(total))
	}
}

// TestParallelEarlyExitStaysLazy proves the predicate scan stays lazy
// under an early-exit consumer: Take(1) leaves the index scan having
// produced one row, while a full drain of the same shape produces every
// word.
func TestParallelEarlyExitStaysLazy(t *testing.T) {
	d, err := corpus.Generate(corpus.Params{Seed: 31, Words: 120, DamageRate: 0.2, RestoreRate: 0.2}).Document()
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompile(`//w[string-length(string(.)) > 0]`)
	total, err := q.Eval(d)
	if err != nil {
		t.Fatal(err)
	}

	s, render := q.StreamExplain(nil, d, nil, nil)
	if _, err := s.Take(1); err != nil {
		t.Fatal(err)
	}
	scan := scanOp(render())
	if scan == nil {
		t.Fatal("no index-scan in plan")
	}
	if scan.OutRows != 1 {
		t.Fatalf("early-exit consumer drained %d rows, want 1", scan.OutRows)
	}

	s2, render2 := q.StreamExplain(nil, d, nil, nil)
	if _, err := s2.Take(0); err != nil {
		t.Fatal(err)
	}
	if scan2 := scanOp(render2()); scan2.OutRows != int64(len(total)) {
		t.Fatalf("full drain produced %d scan rows, want %d", scan2.OutRows, len(total))
	}
}

// TestStreamEarlyErrorParity: a full drain of the stream must surface
// the same error the strict evaluation does.
func TestStreamErrorParity(t *testing.T) {
	d := corpus.MustBoethius()
	for _, src := range []string{
		`/descendant::w('nope')`,
		`//w[xdescendant::q('absent')]`,
		`for $x in //w return $x/child::w('nope')`,
	} {
		q := MustCompile(src)
		_, evalErr := q.Eval(d)
		_, streamErr := drainStream(q.Stream(nil, d, nil, nil))
		switch {
		case evalErr == nil && streamErr == nil:
		case evalErr != nil && streamErr != nil:
			if evalErr.(*Error).Code != streamErr.(*Error).Code {
				t.Errorf("%q: eval %v vs stream %v", src, evalErr, streamErr)
			}
		default:
			t.Errorf("%q: eval err=%v, stream err=%v", src, evalErr, streamErr)
		}
	}
}

// TestStreamPullAdapter checks the goroutine behind Stream.Next: an
// abandoned stream's evaluation goroutine ends once the Stream is
// garbage-collected, streams on separate goroutines do not share
// state, Next resumes after Take, a panic in the evaluation is raised
// in Next, and Each before Next evaluates on the caller's goroutine.
func TestStreamPullAdapter(t *testing.T) {
	d, err := corpus.Generate(corpus.Params{Seed: 5, Words: 300}).Document()
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompile(`//w[string-length(string(.)) > 0]`)
	total, err := q.Eval(d)
	if err != nil {
		t.Fatal(err)
	}

	settle := func(want int) int {
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
		return n
	}
	base := settle(runtime.NumGoroutine())
	func() {
		for i := 0; i < 100; i++ {
			if got, err := q.Stream(nil, d, nil, nil).Take(1); err != nil || len(got) != 1 {
				t.Fatalf("Take(1) = %d items, err=%v", len(got), err)
			}
		}
	}()
	if n := settle(base); n > base {
		t.Errorf("%d goroutines after abandoning 100 streams, want the baseline %d", n, base)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := q.Stream(nil, d, nil, nil)
			head, err := s.Take(3)
			if err != nil {
				t.Error(err)
				return
			}
			rest, err := drainStream(s)
			if err != nil {
				t.Error(err)
				return
			}
			if got := append(head, rest...); !sameItems(got, total) || s.Count() != len(total) {
				t.Errorf("Take(3) then Next delivered %d items (Count %d), want %d", len(got), s.Count(), len(total))
			}
		}()
	}
	wg.Wait()

	s := &Stream{run: func(yield func(Item) bool) error {
		yield(1.0)
		panic("boom")
	}}
	if it, ok, err := s.Next(); !ok || err != nil || it != 1.0 {
		t.Fatalf("Next = %v, %v, %v", it, ok, err)
	}
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("Next after the evaluation panicked: recovered %v, want boom", r)
			}
		}()
		s.Next()
	}()

	before := runtime.NumGoroutine()
	n := 0
	err = q.Stream(nil, d, nil, nil).Each(func(Item) bool {
		if runtime.NumGoroutine() > before {
			t.Error("Each started a goroutine")
		}
		n++
		return n < 5
	})
	if err != nil || n != 5 {
		t.Errorf("Each stopped after %d items, err=%v, want 5", n, err)
	}
}
