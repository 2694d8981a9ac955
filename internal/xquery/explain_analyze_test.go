package xquery

import (
	"testing"

	"mhxquery/internal/corpus"
)

// TestExplainAnalyzeMatchesExplain proves EXPLAIN ANALYZE is the same
// evaluation as EXPLAIN plus timing: operator for operator, the
// analyzed tree reports identical calls/in/out cardinalities, and the
// timed run populates wall time where work happened.
func TestExplainAnalyzeMatchesExplain(t *testing.T) {
	d, err := corpus.Generate(corpus.Params{Seed: 11, Words: 500, DamageRate: 0.2, RestoreRate: 0.2}).Document()
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`count(/descendant::w)`,
		`for $s in //seg return count($s/descendant::w)`,
		`//w[@n]`,
	}
	for _, src := range queries {
		q := MustCompile(src)
		seqE, plain, err := q.Explain(d, nil, nil)
		if err != nil {
			t.Fatalf("%s: explain: %v", src, err)
		}
		seqA, analyzed, err := q.ExplainAnalyze(d, nil, nil)
		if err != nil {
			t.Fatalf("%s: analyze: %v", src, err)
		}
		if len(seqE) != len(seqA) {
			t.Fatalf("%s: result diverged: %d vs %d items", src, len(seqE), len(seqA))
		}
		var compare func(a, b *ExplainOp, path string)
		compare = func(a, b *ExplainOp, path string) {
			p := path + "/" + a.Op
			if a.Op != b.Op || a.Detail != b.Detail {
				t.Fatalf("%s: tree shape diverged at %s: %q vs %q", src, p, a.Detail, b.Detail)
			}
			if a.Calls != b.Calls || a.InRows != b.InRows || a.OutRows != b.OutRows {
				t.Errorf("%s: cardinalities diverged at %s: explain {%d %d %d} analyze {%d %d %d}",
					src, p, a.Calls, a.InRows, a.OutRows, b.Calls, b.InRows, b.OutRows)
			}
			if a.Nanos != 0 {
				t.Errorf("%s: plain EXPLAIN reported time at %s", src, p)
			}
			if len(a.Children) != len(b.Children) {
				t.Fatalf("%s: child count diverged at %s", src, p)
			}
			for i := range a.Children {
				compare(a.Children[i], b.Children[i], p)
			}
		}
		compare(plain, analyzed, "")
		if analyzed.Nanos <= 0 {
			t.Errorf("%s: root Nanos = %d, want total query wall time > 0", src, analyzed.Nanos)
		}
		// At least one operator below the root must have observed time:
		// the query did real work over 500 words.
		var timed int
		var walk func(op *ExplainOp)
		walk = func(op *ExplainOp) {
			if op.Nanos > 0 {
				timed++
			}
			for _, k := range op.Children {
				walk(k)
			}
		}
		for _, k := range analyzed.Children {
			walk(k)
		}
		if timed == 0 {
			t.Errorf("%s: no operator below the root recorded wall time", src)
		}
	}
}

// TestExplainAnalyzeInclusiveTimes checks the documented inclusion
// property at the root: total query time bounds every operator's time.
func TestExplainAnalyzeInclusiveTimes(t *testing.T) {
	d, err := corpus.Generate(corpus.Params{Seed: 3, Words: 400}).Document()
	if err != nil {
		t.Fatal(err)
	}
	_, tree, err := MustCompile(`for $w in //w return string($w)`).ExplainAnalyze(d, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(op *ExplainOp)
	walk = func(op *ExplainOp) {
		for _, k := range op.Children {
			if k.Nanos > tree.Nanos {
				t.Errorf("operator %s/%s reports %dns, more than the %dns total", k.Op, k.Detail, k.Nanos, tree.Nanos)
			}
			walk(k)
		}
	}
	walk(tree)
}
