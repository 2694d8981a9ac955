package xquery

import (
	"fmt"
	"math/rand"
	"testing"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
	"mhxquery/internal/xmlparse"
)

// This file is the index rule's oracle: TestPlanChoiceDifferential
// forces the axis pipeline where the planner would scan the name index
// (planForce.noIndex) and requires both plans to produce node- and
// error-code-identical results over every route (collected, drained and
// cut short by Take(k)), for the paper
// queries, the load benchmark's query shapes and hundreds of seeded
// random path, FLWOR and quantifier shapes. The hand-picked shapes are
// also held against the AST oracle.

// planKnob is one forced planner configuration of the differential.
type planKnob struct {
	name  string
	force planForce
}

var planKnobs = []planKnob{
	{name: "default"}, // Compile's plan, the baseline
	{name: "noindex", force: planForce{noIndex: true}},
}

// evalForced plans src under one forced configuration and evaluates it
// collected, drained and cut short by Take(k), which must agree exactly
// before the caller compares configurations.
func evalForced(t *testing.T, d *core.Document, src string, k planKnob) (Seq, error) {
	t.Helper()
	q, err := Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	pl := newPlan(q, k.force)
	fast, fastErr := pl.Eval(d, nil, nil)
	streamed, streamErr := pl.Stream(nil, d, nil, nil).Take(0)
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
	checkTakes(t, "["+k.name+"] "+src, func() *Stream { return pl.Stream(nil, d, nil, nil) }, fast, fastErr, sameOrSerialized)
	return fast, fastErr
}

// sameOutcome reports a difference between got/err and want/wantErr:
// the same nodes (by identity where the query yields nodes, else the
// same serialization) or the same error code.
func sameOutcome(t *testing.T, label string, got Seq, err error, want Seq, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) {
		t.Errorf("%s: err=%v, want err=%v", label, err, wantErr)
		return
	}
	if err != nil {
		fe, fok := err.(*Error)
		we, wok := wantErr.(*Error)
		if !fok || !wok || fe.Code != we.Code {
			t.Errorf("%s: error %v, want error %v", label, err, wantErr)
		}
		return
	}
	if !sameItems(got, want) && Serialize(got) != Serialize(want) {
		t.Errorf("%s:\n  got:  %s\n  want: %s", label, Serialize(got), Serialize(want))
	}
}

// workloadShapes are the query shapes the load benchmark (bench/mhload)
// sends, with its literals filled in: the paper-read set, the
// adhoc-small templates and the fan-out scan.
var workloadShapes = []string{
	// paper-read: Queries I.1, I.2, II.1, III.1, the damaged-word count,
	// overlapping-word strings, a nested FLWOR join and the cold query.
	planPaperQueries[0],
	planPaperQueries[1],
	queryII1Src,
	queryIII1Src,
	`count(/descendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg])`,
	`for $w in //w[overlapping::line] return string($w)`,
	`for $v in /descendant::vline
for $w in $v/child::w
where exists($w/overlapping::dmg)
return string($w)`,
	`count(//w[overlapping::line])`,
	// adhoc-small
	`(//w[string(.)='unawendendne'])[1]`,
	`count(//line[2]/overlapping::w)`,
	`string((//vline)[1])`,
	`exists((//w)[3][overlapping::dmg])`,
	`count((//res)[1]/overlapping::w)`,
	`//w[string(.)='singallice' or string(.)='unawendendne']`,
	`for $w in (//vline)[1]/w return string($w)`,
	`(//line)[1]/overlapping::w`,
	// fanout-scan
	`//w[overlapping::dmg]`,
}

// multiShapeQueries are hand-picked shapes with several predicates on
// one step, several quantifier bindings, or runs of FLWOR bindings.
var multiShapeQueries = []string{
	// Multi-predicate steps.
	`/descendant::line[descendant::text()][descendant::zzz]`,
	`/descendant::vline[child::w][child::zzz]`,
	`/descendant::w[child::node()][descendant::text()][self::w]`,
	`//vline[child::w][descendant::text()]`,
	// Multi-binding quantifiers.
	`some $a in /descendant::w, $b in /descendant::line satisfies exists($a/child::node())`,
	`every $a in /descendant::zzz, $b in /descendant::w satisfies exists($b/child::node())`,
	`some $a in /descendant::line, $b in /descendant::vline, $c in /descendant::w satisfies $c/child::text()`,
	`some $a in /descendant::w, $b in /descendant::line satisfies exists(child::zzz)`,
	`every $a in /descendant::w, $b in /descendant::zzz satisfies descendant::text()`,
	// FLWOR for-binding runs under exists/empty/count.
	`count(for $a in /descendant::w for $b in /descendant::line return 1)`,
	`exists(for $a in /descendant::line for $b in /descendant::w return $b)`,
	`empty(for $a in /descendant::zzz for $b in /descendant::w return $a)`,
	`count(for $a in /descendant::vline for $b in /descendant::line for $c in /descendant::dmg return ($a, $c))`,
	// Leading child chains.
	`/child::vline/child::w`,
	`/child::line/child::w/child::zzz`,
	// Dependent, fallible or positional shapes.
	`some $a in /descendant::vline, $b in $a/child::w satisfies exists($b/child::node())`,
	`count(for $a in /descendant::line for $b in /descendant::w return string($a))`,
	`/descendant::vline[child::w][1]`,
	`/descendant::line[child::w('nope')][descendant::text()]`,
	// //name with predicates that read position: per-parent segments of
	// the index scan, names nested in themselves, several contexts.
	`//a[1]`,
	`//a[last()]`,
	`//a[position() = last() - 1]`,
	`//a[2][child::a]`,
	`//line[1 + 1]`,
	`/descendant::s//p[1]`,
	`(//s)[1]//p[last()]`,
	// [last()] on segments of known size: an axis step (forward,
	// reverse, hierarchy-qualified), an index scan, a filter and a
	// later stage, which holds its input.
	`/descendant::vline/child::w[last()]`,
	`/descendant::w/preceding::node()[last()]`,
	`/descendant::vline/child::w('structure')[last()]`,
	`/descendant::w[last()]`,
	`(/descendant::line)[last()]`,
	`/descendant::vline/child::w[last()][overlapping::dmg]`,
	`/descendant::w[overlapping::dmg][last()]`,
	// Nested and constructed contexts, where the scan runs expanded.
	`//a//a[1]`,
	`(<x><a/><b><a/><a/></b></x>)//a[2]`,
	// Structural tests asked of one node at a time, which the default
	// plan answers from survivor sets once a version's memo has sighted
	// them: Query I.2's test in its count form and the join's where form;
	// leaves with an ancestor in one hierarchy only or in none, under a
	// filter, a where, an if and a step; an element subject, whose
	// ancestors are its own hierarchy's; a milestone named like the
	// target; a predicate after another; a lone candidate; and the
	// per-node fallbacks: a constructed node, the root, an attribute.
	`count(for $l in /descendant::line[xdescendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]
for $leaf in $l/descendant::leaf() where $leaf[ancestor::w and ancestor::dmg] return $leaf)`,
	`count(for $v in /descendant::vline for $w in $v/child::w where exists($w/overlapping::dmg) return $w)`,
	`/descendant::leaf()[ancestor::a]`,
	`for $l in /descendant::leaf() where $l[ancestor::a] return string($l)`,
	`for $l in /descendant::leaf() return if ($l[ancestor::a or ancestor::e]) then 1 else 0`,
	`for $l in /descendant::leaf() where $l[ancestor::a and xancestor::d] return $l`,
	`(//c, //d)[ancestor::a]`,
	`for $c in (//c, //d) where exists($c/ancestor::a) return $c`,
	`for $c in (//c, //d) where $c/ancestor::a[xdescendant::d] return $c`,
	`for $x in /descendant::a return exists($x/xdescendant::a)`,
	`for $x in /descendant::node() where $x[ancestor::a] return $x`,
	`/descendant::leaf()[string(.) != 'x'][ancestor::a]`,
	`for $w in /descendant::w return $w/self::w[overlapping::dmg]`,
	`let $x := <w>a<c>b</c></w> return (exists($x/overlapping::dmg), $x/c[ancestor::w], ($x/c)[ancestor::w])`,
	`for $r in (/) return (exists($r/overlapping::w), $r[ancestor::a], count($r/descendant::leaf()[ancestor::a]))`,
	`for $x in /descendant::*/attribute::* where $x[ancestor::a] return $x`,
}

// planChoiceDocs is the differential corpus: the Boethius fixture, a
// generated manuscript with heavy markup overlap, the chain-test
// document, whose nested uniform markup gives leading child chains
// matches at several depths, and a document that nests a name in
// itself, so a //name scan's parents interleave.
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
		"nest":     nestDoc(t),
		"anc":      ancDoc(t),
	}
}

// ancDoc has leaves with an a ancestor, which hierarchy one alone holds
// ("a", "b"), and leaves with none ("cd", "ef"); a c whose ancestor is
// an a of its own hierarchy and a d of hierarchy two inside that a's
// span, whose ancestors hold no a; and an empty a (a milestone) between
// "cd" and "ef".
func ancDoc(t testing.TB) *core.Document {
	t.Helper()
	return buildDoc(t, []struct{ name, xml string }{
		{"one", `<r><a>a<c>b</c></a>cd<a/>ef</r>`},
		{"two", `<r>a<d>b</d><e>cd</e>ef</r>`},
	})
}

func buildDoc(t testing.TB, hs []struct{ name, xml string }) *core.Document {
	t.Helper()
	var trees []core.NamedTree
	for _, h := range hs {
		root, err := xmlparse.Parse(h.xml, xmlparse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, core.NamedTree{Name: h.name, Root: root})
	}
	d, err := core.Build(trees)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// nestDoc nests a in itself, so //a's parents interleave: the shared
// root's a children come around the first one's, and those around the
// a inside b.
func nestDoc(t testing.TB) *core.Document {
	t.Helper()
	return buildDoc(t, []struct{ name, xml string }{
		{"nest", `<r><a><a>x</a><b><a>y</a></b><a>z</a></a><a>w</a></r>`},
		{"str", `<r><s><p>xy</p></s><s><p>z</p><p>w</p></s></r>`},
	})
}

// TestPlanChoiceDifferential is the plan-forcing sweep: for every query
// and document, the noIndex plan must agree with Compile's plan — same
// nodes (by identity where the query yields nodes) or the same error
// code — and on the load benchmark's shapes both must agree with the
// AST oracle.
func TestPlanChoiceDifferential(t *testing.T) {
	t.Parallel()
	docs := planChoiceDocs(t)
	// The knob must actually force the alternative.
	if tree := newPlan(MustCompile(`//w[1]`), planForce{noIndex: true}).Describe(); len(findOps(tree, "index-scan")) != 0 {
		t.Fatalf("noIndex plan still scans the index: %+v", tree)
	}

	queries := append([]string{}, multiShapeQueries...)
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
	if len(queries) < 200+len(multiShapeQueries)+len(planPaperQueries) {
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
				sameOutcome(t, fmt.Sprintf("%s: %q: [%s] vs [default]", name, src, k.name), got, err, base, baseErr)
			}
		}
	}
	for _, src := range workloadShapes {
		q := MustCompile(src)
		for name, d := range docs {
			ref, refErr := oracleEval(q, d, nil, nil)
			for _, k := range planKnobs {
				got, err := evalForced(t, d, src, k)
				sameOutcome(t, fmt.Sprintf("%s: %q: [%s] vs oracle", name, src, k.name), got, err, ref, refErr)
			}
		}
	}
}

// TestPlanChoiceAgainstOracle anchors the forced-plan sweep to the AST
// interpreter: for the multi-predicate, multi-binding and FLWOR-run
// shapes, both plans must also match the oracle, not just each other.
func TestPlanChoiceAgainstOracle(t *testing.T) {
	t.Parallel()
	docs := planChoiceDocs(t)
	for _, src := range multiShapeQueries {
		q := MustCompile(src)
		for name, d := range docs {
			ref, refErr := oracleEval(q, d, nil, nil)
			for _, k := range planKnobs {
				got, err := evalForced(t, d, src, k)
				sameOutcome(t, fmt.Sprintf("%s: %q: [%s] vs oracle", name, src, k.name), got, err, ref, refErr)
			}
		}
	}
}
