package xquery

import (
	"testing"

	"mhxquery/internal/corpus"
)

// TestSemiJoinLowering checks which predicates the planner lowers to a
// semi-join operator, and that terms with equal filtered targets share
// one target filter.
func TestSemiJoinLowering(t *testing.T) {
	d := corpus.MustBoethius()
	for _, tc := range []struct {
		src              string
		semiJoins, filts int
	}{
		{`//w[overlapping::line]`, 1, 0},
		{`//w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]`, 1, 0},
		{`//line[xdescendant::w[string(.) = 'x'] or overlapping::w[string(.) = 'x']]`, 1, 1},
		{`//line[xdescendant::w[string(.) = 'x'] and overlapping::w[string(.) eq 'y']]`, 1, 2},
		{`//line[xdescendant::w[overlapping::dmg]]`, 2, 1},    // the target filter is itself one
		{`//w[overlapping::dmg('damage')]`, 1, 0},             // qualified names bind at run time
		{`//w[xfollowing::dmg]`, 0, 0},                        // not an existence-sweep axis
		{`//w[overlapping::*]`, 0, 0},                         // not a name test
		{`//w[overlapping::dmg/child::text()]`, 0, 0},         // more than one step
		{`//w[not(overlapping::dmg)]`, 0, 0},                  // not an or/and tree
		{`//w[overlapping::dmg[1]]`, 0, 0},                    // positional target filter
		{`//w[overlapping::dmg[string(.) = $x]]`, 0, 0},       // reads a variable
		{`//w[overlapping::dmg[string-length(.) > 1]]`, 0, 0}, // not provably infallible
		{`(//w)[overlapping::dmg]`, 0, 0},                     // a filter expression, not a step
	} {
		q, err := Compile(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		tree := q.PlanFor(d).Describe()
		if got := len(findOps(tree, "semi-join")); got != tc.semiJoins {
			t.Errorf("%s: %d semi-join operators, want %d", tc.src, got, tc.semiJoins)
		}
		if got := len(findOps(tree, "target")); got != tc.filts {
			t.Errorf("%s: %d target filters, want %d", tc.src, got, tc.filts)
		}
	}
}

// TestPredInfallibleStringCompare pins the one comparison shape
// predInfallible accepts: string(.) against a string literal by =, !=,
// eq or ne.
func TestPredInfallibleStringCompare(t *testing.T) {
	for _, tc := range []struct {
		pred string
		want bool
	}{
		{`string(.) = 'a'`, true},
		{`string(.) != 'a'`, true},
		{`string(.) eq 'a'`, true},
		{`string(.) ne ''`, true},
		{`string(.) lt 'a'`, false},
		{`string(.) < 'a'`, false},
		{`string(.) = 1`, false},
		{`'a' = string(.)`, false},
		{`string() = 'a'`, false},
		{`string(..) = 'a'`, false},
		{`. = 'a'`, false},
		{`string(.) = $x`, false},
	} {
		q, err := Compile(`//w[` + tc.pred + `]`)
		if err != nil {
			t.Fatalf("%s: %v", tc.pred, err)
		}
		pred := q.body.(*pathExpr).steps[len(q.body.(*pathExpr).steps)-1].preds[0]
		if got := predInfallible(pred); got != tc.want {
			t.Errorf("predInfallible(%s) = %v, want %v", tc.pred, got, tc.want)
		}
	}
}
