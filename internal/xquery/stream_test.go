package xquery

import (
	stdctx "context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

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
// early exit: when the 3rd item of //w — bare, or through a predicate
// every word passes — over a large document reaches the consumer, the
// index scan must have produced only those 3 items, not the whole run.
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

		scan, n := scanAtItem(t, q, d, 3)
		if scan == nil {
			t.Fatalf("%s: no index-scan operator in the plan", src)
		}
		if scan.OutRows != 3 {
			t.Fatalf("%s: index scan had produced %d rows at the 3rd item; early exit is broken (total %d)", src, scan.OutRows, len(total))
		}
		// Running on must still deliver the full result.
		if n != len(total) {
			t.Fatalf("%s: stream delivered %d items, want %d", src, n, len(total))
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
	scan, n := scanAtItem(t, q, dd, 3)
	if scan == nil || scan.OutRows >= int64(words/4) {
		t.Fatalf("semi-join: index scan = %+v at the 3rd item over %d words; early exit is broken", scan, words)
	}
	if n != len(total) {
		t.Fatalf("semi-join: stream delivered %d items, want %d", n, len(total))
	}
}

// TestStreamNestedLastStaysLazy checks that a predicate reading last()
// only in a nested focus leaves its own filter streaming: at the 3rd
// item of (//w)[exists((/descendant::w)[last()])] over a large
// document the filter's base scan is at 3 rows, while the nested
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
	scan, n := scanAtItem(t, q, d, 3)
	if scan == nil || scan.OutRows != 3 {
		t.Fatalf("outer index scan = %+v at the 3rd item; want 3 rows (total %d)", scan, len(total))
	}
	if n != len(total) {
		t.Fatalf("stream delivered %d items, want %d", n, len(total))
	}
}

// TestStreamCancel checks context cancellation: a runaway query, and a
// predicate scan over a large document, stop with MHXQ0002 within a
// bounded number of items, and the stream routes poll where
// EvalContext does.
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

		if _, err := q.Stream(ctx, tc.d, nil, nil).Take(0); err == nil {
			t.Fatalf("%s: canceled stream drained without error", tc.src)
		} else if xe, ok := err.(*Error); !ok || xe.Code != "MHXQ0002" {
			t.Fatalf("%s: stream err = %v, want MHXQ0002", tc.src, err)
		}
	}

	// Under a canceled context the stream, Each and EvalContext poll at
	// the same points, so they agree error for error, and item for item
	// when they complete: short results complete, `1 to 300` reaches a
	// poll (Each has pushed the items before it).
	d := corpus.MustBoethius()
	for _, src := range []string{`//nonexistent`, `()`, `1`, `1 to 10`, `//w`, `count(//w)`, `1 to 200`, `1 to 300`} {
		q := MustCompile(src)
		want, wantErr := q.EvalContext(ctx, d, nil, nil)
		got, err := q.Stream(ctx, d, nil, nil).Take(0)
		if errCode(err) != errCode(wantErr) || !sameItems(got, want) {
			t.Errorf("%s: canceled stream = %s, err=%v; EvalContext = %s, err=%v", src, Serialize(got), err, Serialize(want), wantErr)
		}
		var pushed Seq
		err = q.Each(ctx, d, nil, nil, func(it Item) bool { pushed = append(pushed, it); return true })
		if errCode(err) != errCode(wantErr) || wantErr == nil && !sameItems(pushed, want) {
			t.Errorf("%s: canceled Each = %s, err=%v; EvalContext = %s, err=%v", src, Serialize(pushed), err, Serialize(want), wantErr)
		}
	}
}

// scanAtItem streams q over d with instrumentation and returns the
// first index scan as rendered when the k-th item reached the consumer,
// and how many items the stream delivered in all: laziness is observed
// inside one Each that then runs to the end.
func scanAtItem(t *testing.T, q *Query, d *core.Document, k int) (*ExplainOp, int) {
	t.Helper()
	s, render := q.StreamExplain(nil, d, nil, nil)
	var scan *ExplainOp
	n := 0
	if err := s.Each(func(Item) bool {
		if n++; n == k {
			scan = scanOp(render())
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return scan, n
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
	n := 0
	err = q.Stream(ctx, d, nil, nil).Each(func(Item) bool {
		if n++; n == 5 {
			cancel()
		}
		return true
	})
	xe, ok := err.(*Error)
	if !ok || xe.Code != "MHXQ0002" {
		t.Fatalf("stream canceled mid-scan returned %v, want MHXQ0002", err)
	}
	if n >= len(total) {
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
		_, streamErr := q.Stream(nil, d, nil, nil).Take(0)
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

// TestStreamPushOnly checks the stream's consumer protocol: Each and
// Take evaluate on the caller's goroutine and start none of their own,
// and a stream is single-use — once consumed it pushes nothing and
// returns the first run's error.
func TestStreamPushOnly(t *testing.T) {
	d, err := corpus.Generate(corpus.Params{Seed: 5, Words: 300}).Document()
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompile(`//w[string-length(string(.)) > 0]`)
	total, err := q.Eval(d)
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	n := 0
	s := q.Stream(nil, d, nil, nil)
	err = s.Each(func(Item) bool {
		if runtime.NumGoroutine() > before {
			t.Error("Each started a goroutine")
		}
		n++
		return n < 5
	})
	if err != nil || n != 5 {
		t.Errorf("Each stopped after %d items, err=%v, want 5", n, err)
	}
	if err := s.Each(func(Item) bool { t.Error("a consumed stream pushed an item"); return true }); err != nil {
		t.Errorf("consumed stream: err=%v", err)
	}
	if got, err := s.Take(0); len(got) != 0 || err != nil {
		t.Errorf("consumed stream: Take(0) = %d items, err=%v", len(got), err)
	}

	head, err := q.Stream(nil, d, nil, nil).Take(3)
	if err != nil || !sameItems(head, total[:3]) {
		t.Errorf("Take(3) = %s, err=%v, want the first 3 words", Serialize(head), err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Each and Take, want at most %d", n, before)
	}

	failing := MustCompile(`/descendant::w('nope')`)
	_, evalErr := failing.Eval(d)
	if evalErr == nil {
		t.Fatal("fixture query evaluated without error")
	}
	bad := failing.Stream(nil, d, nil, nil)
	for i := 1; i <= 2; i++ {
		if _, err := bad.Take(0); errCode(err) != errCode(evalErr) {
			t.Errorf("failed stream, Take #%d: err=%v, want the first run's %v", i, err, evalErr)
		}
	}
}
