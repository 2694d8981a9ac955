package xquery

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"strings"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
	"mhxquery/internal/dom"
)

// This file proves the cost-based planner correct and calibrated:
//
//   - TestPlanChoiceDifferential forces every physical alternative the
//     cost model chooses among (no index scans, reorder disabled) and
//     requires the cost-chosen plan to produce
//     node- and error-code-identical results over both cursor routes —
//     for the paper queries and hundreds of seeded random path, FLWOR
//     and quantifier shapes. Whatever the estimates say, they may only
//     ever change the plan's shape, never its answer.
//
//   - TestEstimateAccuracyQError runs EXPLAIN ANALYZE over the paper
//     corpus at three scales and bounds the q-error
//     (max(est,obs)/min(est,obs)) of every estimated operator: pure
//     structural paths answer from exact per-path synopsis counts and
//     must stay within q-error 2; predicated shapes fall back to
//     heuristic selectivities and must merely stay finite.

// planKnob is one forced planner configuration of the differential.
type planKnob struct {
	name  string
	force planForce
}

var planKnobs = []planKnob{
	{name: "cost"}, // the cost-based choice, the baseline
	{name: "noindex", force: planForce{noIndex: true}},
	{name: "noreorder", force: planForce{noReorder: true}},
	{name: "noindex-noreorder", force: planForce{noIndex: true, noReorder: true}},
}

// evalForced plans src under one forced configuration and evaluates it
// over both cursor routes, which must agree exactly before the caller
// compares configurations.
func evalForced(t *testing.T, d *core.Document, src string, k planKnob) (Seq, error) {
	t.Helper()
	q, err := Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	pl := newPlan(q, d, k.force)
	fast, fastErr := pl.Eval(d, nil, nil)
	streamed, streamErr := drainStream(pl.Stream(nil, d, nil, nil))
	switch {
	case (fastErr == nil) != (streamErr == nil):
		t.Errorf("[%s] %q: eval err=%v, stream err=%v", k.name, src, fastErr, streamErr)
	case fastErr != nil:
		fe, fok := fastErr.(*Error)
		se, sok := streamErr.(*Error)
		if !fok || !sok || fe.Code != se.Code {
			t.Errorf("[%s] %q: eval and stream error codes differ: %v vs %v", k.name, src, fastErr, streamErr)
		}
	case !sameItems(fast, streamed) && Serialize(fast) != Serialize(streamed):
		t.Errorf("[%s] %q: eval and stream disagree:\n  eval:   %s\n  stream: %s",
			k.name, src, Serialize(fast), Serialize(streamed))
	}
	return fast, fastErr
}

// orderableQueries are hand-picked shapes where the cost model actually
// reorders: multi-predicate steps, multi-binding quantifiers, and FLWOR
// binding runs under order-insensitive consumers.
var orderableQueries = []string{
	// Predicate-selectivity ordering (both infallible, position-free).
	`/descendant::line[descendant::text()][descendant::zzz]`,
	`/descendant::vline[child::w][child::zzz]`,
	`/descendant::w[child::node()][descendant::text()][self::w]`,
	`//vline[child::w][descendant::text()]`,
	// Quantifier binding order (independent, infallible sources).
	`some $a in /descendant::w, $b in /descendant::line satisfies exists($a/child::node())`,
	`every $a in /descendant::zzz, $b in /descendant::w satisfies exists($b/child::node())`,
	`some $a in /descendant::line, $b in /descendant::vline, $c in /descendant::w satisfies $c/child::text()`,
	`some $a in /descendant::w, $b in /descendant::line satisfies exists(child::zzz)`,
	`every $a in /descendant::w, $b in /descendant::zzz satisfies descendant::text()`,
	// FLWOR for-binding order under exists/empty/count.
	`count(for $a in /descendant::w for $b in /descendant::line return 1)`,
	`exists(for $a in /descendant::line for $b in /descendant::w return $b)`,
	`empty(for $a in /descendant::zzz for $b in /descendant::w return $a)`,
	`count(for $a in /descendant::vline for $b in /descendant::line for $c in /descendant::dmg return ($a, $c))`,
	// Leading child chains.
	`/child::vline/child::w`,
	`/child::line/child::w/child::zzz`,
	// Reorder gates must hold back: dependent, fallible or positional.
	`some $a in /descendant::vline, $b in $a/child::w satisfies exists($b/child::node())`,
	`count(for $a in /descendant::line for $b in /descendant::w return string($a))`,
	`/descendant::vline[child::w][1]`,
	`/descendant::line[child::w('nope')][descendant::text()]`,
}

// planChoiceDocs is the differential corpus: the Boethius fixture, a
// generated manuscript with heavy markup overlap, and the chain-test
// document, whose nested uniform markup gives leading child chains
// matches at several depths.
func planChoiceDocs(t *testing.T) map[string]*core.Document {
	t.Helper()
	gen, err := corpus.Generate(corpus.Params{Seed: 9, Words: 25, DamageRate: 0.3, RestoreRate: 0.3}).Document()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*core.Document{
		"boethius": corpus.MustBoethius(),
		"gen":      gen,
		"chain":    chainDoc(t),
	}
}

// TestPlanChoiceDifferential is the plan-forcing sweep: for every query
// and document, every forced physical alternative must agree with the
// cost-chosen plan — same nodes (by identity where the query yields
// nodes) or the same error code.
func TestPlanChoiceDifferential(t *testing.T) {
	t.Parallel()
	docs := planChoiceDocs(t)

	queries := append([]string{}, orderableQueries...)
	queries = append(queries, planPaperQueries...)
	r := rand.New(rand.NewSource(20260808))
	for i := 0; i < 130; i++ {
		queries = append(queries, randomPath(r))
	}
	for i := 0; i < 30; i++ {
		queries = append(queries, randomChain(r))
	}
	g := &qgen{r: rand.New(rand.NewSource(20260808))}
	for i := 0; i < 90; i++ {
		queries = append(queries, g.query())
	}
	if len(queries) < 200+len(orderableQueries)+len(planPaperQueries) {
		t.Fatalf("only %d queries; the sweep needs at least 200 random shapes", len(queries))
	}

	for _, src := range queries {
		for name, d := range docs {
			var base Seq
			var baseErr error
			for ki, k := range planKnobs {
				got, err := evalForced(t, d, src, k)
				if ki == 0 {
					base, baseErr = got, err
					continue
				}
				if (err == nil) != (baseErr == nil) {
					t.Errorf("%s: %q: [%s] err=%v, [cost] err=%v", name, src, k.name, err, baseErr)
					continue
				}
				if err != nil {
					fe, fok := err.(*Error)
					be, bok := baseErr.(*Error)
					if !fok || !bok || fe.Code != be.Code {
						t.Errorf("%s: %q: [%s] error %v, [cost] error %v", name, src, k.name, err, baseErr)
					}
					continue
				}
				if !sameItems(got, base) && Serialize(got) != Serialize(base) {
					t.Errorf("%s: %q: [%s] and [cost] disagree:\n  %s: %s\n  cost: %s",
						name, src, k.name, k.name, Serialize(got), Serialize(base))
				}
			}
		}
	}
}

// TestPlanChoiceAgainstOracle anchors the forced-plan sweep to the AST
// interpreter: for the orderable shapes, every forced configuration
// must also match the naive oracle, not just each other.
func TestPlanChoiceAgainstOracle(t *testing.T) {
	t.Parallel()
	docs := planChoiceDocs(t)
	for _, src := range orderableQueries {
		q := MustCompile(src)
		for name, d := range docs {
			ref, refErr := oracleEval(q, d, nil, nil)
			for _, k := range planKnobs {
				got, err := evalForced(t, d, src, k)
				if (err == nil) != (refErr == nil) {
					t.Errorf("%s: %q: [%s] err=%v, oracle err=%v", name, src, k.name, err, refErr)
					continue
				}
				if err != nil {
					fe, fok := err.(*Error)
					re, rok := refErr.(*Error)
					if !fok || !rok || fe.Code != re.Code {
						t.Errorf("%s: %q: [%s] error %v, oracle error %v", name, src, k.name, err, refErr)
					}
					continue
				}
				if !sameItems(got, ref) && Serialize(got) != Serialize(ref) {
					t.Errorf("%s: %q: [%s] vs oracle:\n  %s: %s\n  oracle: %s",
						name, src, k.name, k.name, Serialize(got), Serialize(ref))
				}
			}
		}
	}
}

// TestCostChoicesFire pins that the cost model actually changes plan
// shapes on the paper fixture — a regression that silently disables
// cost-based ordering would still pass the differential (all orders are
// correct) but fail here.
func TestCostChoicesFire(t *testing.T) {
	t.Parallel()
	d := corpus.MustBoethius()

	// FLWOR under count(): line (2 rows) must bind before w (6 rows).
	tree := MustCompile(`count(for $a in /descendant::w for $b in /descendant::line return 1)`).
		PlanFor(d).Describe()
	fors := findOps(tree, "for")
	if len(fors) != 2 || fors[0].Detail != "$b" || fors[1].Detail != "$a" {
		t.Errorf("FLWOR bindings not reordered by size: %+v", fors)
	}

	// Quantifier bindings likewise.
	quants := findOps(MustCompile(`some $a in /descendant::w, $b in /descendant::line satisfies exists(child::zzz)`).
		PlanFor(d).Describe(), "quantified")
	if len(quants) != 1 || quants[0].Detail != "some $b, $a" {
		t.Errorf("quantifier bindings not reordered by size: %+v", quants)
	}

	// Predicates: the empty-name predicate (selectivity 0) runs first.
	scans := findOps(MustCompile(`/descendant::vline[child::w][child::zzz]`).
		PlanFor(d).Describe(), "index-scan")
	if len(scans) != 1 || len(scans[0].Children) != 2 ||
		!strings.HasPrefix(scans[0].Children[0].Detail, "child::zzz") {
		t.Errorf("predicates not reordered by selectivity: %+v", scans)
	}

	// noReorder restores the canonical order (the differential depends
	// on the knob actually forcing the alternative).
	canonical := newPlan(MustCompile(`count(for $a in /descendant::w for $b in /descendant::line return 1)`),
		d, planForce{noReorder: true}).Describe()
	fors = findOps(canonical, "for")
	if len(fors) != 2 || fors[0].Detail != "$a" || fors[1].Detail != "$b" {
		t.Errorf("noReorder did not restore canonical binding order: %+v", fors)
	}

	// noIndex runs every step on the axis pipeline.
	if tree := newPlan(MustCompile(`//w[1]`), d, planForce{noIndex: true}).Describe(); len(findOps(tree, "index-scan")) != 0 {
		t.Errorf("noIndex plan still scans the index: %+v", tree)
	}

	// Exact estimates annotate the operators.
	scans = findOps(MustCompile(`/descendant::w`).PlanFor(d).Describe(), "index-scan")
	if len(scans) != 1 || scans[0].EstRows == nil || *scans[0].EstRows != 6 {
		t.Errorf("index-scan estimate missing or wrong: %+v", scans)
	}
}

// ---- estimate accuracy -----------------------------------------------------

// qerror is the standard estimation-accuracy metric:
// max(est,obs)/min(est,obs), clamping both sides to at least one row so
// an exact zero estimate of an empty result scores a perfect 1.
func qerror(est, obs int64) float64 {
	e := math.Max(float64(est), 1)
	o := math.Max(float64(obs), 1)
	return math.Max(e/o, o/e)
}

type estSample struct {
	query  string
	op     string
	detail string
	est    int64
	obs    int64
	q      float64
}

// collectEstimates runs src under EXPLAIN ANALYZE and returns one
// sample per estimated operator that ran exactly once (multi-call
// operators total their observed rows across calls, which is not what a
// single root-context estimate predicts).
func collectEstimates(t *testing.T, d *core.Document, src string) []estSample {
	t.Helper()
	q := MustCompile(src)
	_, tree, err := q.ExplainAnalyze(d, nil, nil)
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	var out []estSample
	var walk func(op *ExplainOp)
	walk = func(op *ExplainOp) {
		if op.EstRows != nil && op.Calls == 1 {
			out = append(out, estSample{
				query: src, op: op.Op, detail: op.Detail,
				est: *op.EstRows, obs: op.OutRows,
				q: qerror(*op.EstRows, op.OutRows),
			})
		}
		for _, k := range op.Children {
			walk(k)
		}
	}
	walk(tree)
	return out
}

// purePathQueries are unpredicated rooted structural paths: the synopsis
// answers these exactly, so their q-error bound is tight.
var purePathQueries = []string{
	`/descendant::w`,
	`/descendant::line`,
	`/descendant::vline`,
	`/descendant::dmg`,
	`/descendant::res`,
	`/descendant::zzz`,
	`//w`,
	`//line`,
	`/descendant::*`,
	`/child::*`,
	`/child::vline/child::w`,
	`/child::line/child::w`,
	`/descendant::vline/child::w`,
	`/descendant::vline/child::zzz`,
	`/descendant-or-self::w`,
	`/descendant::w/child::text()`,
	`/descendant::line/child::node()`,
}

// predicatedQueries carry predicates or estimator-opaque axes: their
// estimates are heuristic and need only stay finite (every estimated
// operator reports a number, never garbage).
var predicatedQueries = []string{
	`/descendant::w[child::node()]`,
	`/descendant::line[descendant::w]`,
	`/descendant::vline[child::w][child::zzz]`,
	`/descendant::w[string(.) = 'singallice']`,
	`/descendant::line[xdescendant::w]`,
	`/descendant::vline[child::w]/child::w`,
	`//w[self::w]`,
	`/descendant::vline/child::w[1]`,
	`/descendant::line[descendant::text()][position() <= 2]`,
}

// qerrorDocs is the accuracy corpus: the paper fixture plus generated
// manuscripts at 1×, 10× and 100× scale.
func qerrorDocs(t *testing.T) map[string]*core.Document {
	t.Helper()
	docs := map[string]*core.Document{"boethius": corpus.MustBoethius()}
	for _, scale := range []int{1, 10, 100} {
		p := corpus.Params{Seed: 17, Words: 20 * scale, DamageRate: 0.25, RestoreRate: 0.25}
		d, err := corpus.Generate(p).Document()
		if err != nil {
			t.Fatal(err)
		}
		docs[fmt.Sprintf("gen-%dx", scale)] = d
	}
	return docs
}

// TestEstimateAccuracyQError bounds the planner's estimate quality. On
// failure the message lists the worst offenders with their query,
// operator, estimate and observation.
func TestEstimateAccuracyQError(t *testing.T) {
	const pureBound = 2.0
	for name, d := range qerrorDocs(t) {
		var pure, pred []estSample
		for _, src := range purePathQueries {
			pure = append(pure, collectEstimates(t, d, src)...)
		}
		for _, src := range predicatedQueries {
			pred = append(pred, collectEstimates(t, d, src)...)
		}
		if len(pure) == 0 {
			t.Fatalf("%s: no estimated operators on pure paths — estimation is not wired in", name)
		}
		sort.Slice(pure, func(i, j int) bool { return pure[i].q > pure[j].q })
		if worst := pure[0].q; worst > pureBound {
			n := len(pure)
			if n > 5 {
				n = 5
			}
			msg := ""
			for _, s := range pure[:n] {
				msg += fmt.Sprintf("\n  q=%.2f est=%d obs=%d %s %q (%s)", s.q, s.est, s.obs, s.op, s.detail, s.query)
			}
			t.Errorf("%s: pure-path max q-error %.2f exceeds %.1f; worst offenders:%s", name, worst, pureBound, msg)
		}
		for _, s := range pred {
			if math.IsNaN(s.q) || math.IsInf(s.q, 0) || s.est < 0 {
				t.Errorf("%s: non-finite estimate: est=%d obs=%d %s %q (%s)", name, s.est, s.obs, s.op, s.detail, s.query)
			}
		}
	}
}

// TestEstimatesSurviveUpdates pins the incremental-synopsis → planner
// contract: after document edits, a fresh plan's estimates come from the
// patched synopsis and stay exact on pure paths.
func TestEstimatesSurviveUpdates(t *testing.T) {
	c := corpus.Generate(corpus.Params{Seed: 23, Words: 30, DamageRate: 0.3})
	d, err := c.Document()
	if err != nil {
		t.Fatal(err)
	}
	// Warm the synopses, then edit, so Apply maintains them
	// incrementally rather than deferring to a fresh build.
	for _, h := range d.Hiers {
		h.Synopsis()
	}
	var target *dom.Node
	for _, n := range d.Hiers[0].Nodes {
		if n.Kind == dom.Element {
			target = n
			break
		}
	}
	d2, st, err := d.Apply([]core.Edit{
		{Kind: core.EditRename, Target: target, Name: "renamed"},
		{Kind: core.EditWrap, Target: target, Name: "wrapped", From: 0, To: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.SynopsesPatched == 0 {
		t.Fatalf("update patched no synopses (stats %+v): the incremental path is not under test", st)
	}
	for _, src := range purePathQueries {
		for _, s := range collectEstimates(t, d2, src) {
			if s.q > 2.0 {
				t.Errorf("post-update q=%.2f est=%d obs=%d %s %q (%s)", s.q, s.est, s.obs, s.op, s.detail, s.query)
			}
		}
	}
}
