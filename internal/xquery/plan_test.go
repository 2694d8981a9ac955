package xquery

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
	"mhxquery/internal/dom"
	"mhxquery/internal/xmlparse"
)

// ---- EXPLAIN / operator selection -----------------------------------------

// findOps returns every node of the explain tree with the given op.
func findOps(n *ExplainOp, op string) []*ExplainOp {
	var out []*ExplainOp
	if n.Op == op {
		out = append(out, n)
	}
	for _, k := range n.Children {
		out = append(out, findOps(k, op)...)
	}
	return out
}

// TestExplainIndexScanSelected checks that //name-leading paths run as
// index-scan operators and that the observed cardinalities match the
// query result.
func TestExplainIndexScanSelected(t *testing.T) {
	d := corpus.MustBoethius()
	for _, tc := range []struct {
		src    string
		detail string
		rows   int64
	}{
		{`/descendant::line`, "descendant::line", 2},
		{`//w`, "descendant::w", 6}, // the // abbreviation is fused at plan time
		{`/descendant-or-self::dmg`, "descendant-or-self::dmg", 2},
	} {
		q := MustCompile(tc.src)
		seq, tree, err := q.Explain(d, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		scans := findOps(tree, "index-scan")
		if len(scans) != 1 {
			t.Fatalf("%s: %d index-scan ops, want 1", tc.src, len(scans))
		}
		sc := scans[0]
		if !sc.Index || !strings.HasPrefix(sc.Detail, tc.detail) {
			t.Errorf("%s: index-scan = %+v", tc.src, sc)
		}
		if sc.OutRows != tc.rows || int64(len(seq)) != tc.rows {
			t.Errorf("%s: out_rows=%d len=%d, want %d", tc.src, sc.OutRows, len(seq), tc.rows)
		}
		if sc.Calls != 1 {
			t.Errorf("%s: calls=%d, want 1", tc.src, sc.Calls)
		}
	}
}

// TestExplainPerParentScan checks that //name[k], whose predicate
// selects by position among each parent's children, runs as one index
// scan of the name's run, grouped by parent: no operator of the plan
// reads more rows than the document has lines, where the expanded
// descendant-or-self::node()/child::line[2] read every node.
func TestExplainPerParentScan(t *testing.T) {
	d, err := corpus.Generate(corpus.Params{Seed: 10, Words: 60, DamageRate: 0.12}).Document()
	if err != nil {
		t.Fatal(err)
	}
	lines, err := MustCompile(`count(/descendant::line)`).Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	nLines := int64(lines[0].(float64))
	src := `count(//line[2]/overlapping::w)`
	got, tree, err := MustCompile(src).ExplainAnalyze(d, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newPlan(MustCompile(src), planForce{noIndex: true}).Eval(d, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if Serialize(got) != Serialize(want) {
		t.Errorf("%s = %s, the expanded plan gives %s", src, Serialize(got), Serialize(want))
	}
	scans := findOps(tree, "index-scan")
	if len(scans) != 1 || scans[0].Detail != "descendant::line[…] per parent" || scans[0].InRows != 1 {
		t.Fatalf("index-scan ops = %+v, want one per-parent scan from the root", scans)
	}
	if len(findOps(tree, "axis-step")) != 1 {
		t.Errorf("axis steps besides overlapping::w remain: %+v", findOps(tree, "axis-step"))
	}
	var walk func(n *ExplainOp)
	walk = func(n *ExplainOp) {
		if n.InRows > nLines {
			t.Errorf("%s %s reads %d rows, more than the %d lines", n.Op, n.Detail, n.InRows, nLines)
		}
		for _, k := range n.Children {
			walk(k)
		}
	}
	walk(tree)
}

// TestBooleanBuiltinPredicateScan checks that a predicate calling a
// boolean builtin cannot select by position, so //w[contains(…)] fuses
// into one plain index scan rather than a per-parent one, and answers
// as the axis pipeline does.
func TestBooleanBuiltinPredicateScan(t *testing.T) {
	d, err := corpus.Generate(corpus.Params{Seed: 10, Words: 60, DamageRate: 0.12}).Document()
	if err != nil {
		t.Fatal(err)
	}
	src := `//w[contains(string(.),'a')]`
	got, tree, err := MustCompile(src).Explain(d, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newPlan(MustCompile(src), planForce{noIndex: true}).Eval(d, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || Serialize(got) != Serialize(want) {
		t.Errorf("%s = %s, the noindex plan gives %s", src, Serialize(got), Serialize(want))
	}
	scans := findOps(tree, "index-scan")
	if len(scans) != 1 || scans[0].Detail != "descendant::w[…]" {
		t.Fatalf("index-scan ops = %+v, want one plain scan", scans)
	}
}

// TestExplainPaperQueryI1 checks the paper's Query I.1 runs its leading
// step as an index scan and nests the predicate under it, lowered to a
// semi-join that filters the scanned lines in one sweep.
func TestExplainPaperQueryI1(t *testing.T) {
	d := corpus.MustBoethius()
	q := MustCompile(`for $l in /descendant::line
  [xdescendant::w[string(.) = 'singallice'] or overlapping::w[string(.) = 'singallice']]
return string($l)`)
	_, tree, err := q.Explain(d, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	scans := findOps(tree, "index-scan")
	if len(scans) != 1 || !strings.HasPrefix(scans[0].Detail, "descendant::line") {
		t.Fatalf("index-scan ops = %+v", scans)
	}
	sjs := findOps(scans[0], "semi-join")
	if len(sjs) != 1 {
		t.Fatalf("semi-join ops under the index scan = %+v", sjs)
	}
	if sjs[0].Calls != 1 || sjs[0].InRows != 2 || sjs[0].OutRows != 2 {
		t.Errorf("semi-join calls/in/out = %d/%d/%d, want 1/2/2", sjs[0].Calls, sjs[0].InRows, sjs[0].OutRows)
	}
	if scans[0].OutRows != 2 {
		t.Errorf("index scan out_rows = %d, want 2 (both lines pass)", scans[0].OutRows)
	}
}

// chainDoc builds a two-hierarchy document with nested uniform markup
// for leading child:: chain tests.
func chainDoc(t testing.TB) *core.Document {
	t.Helper()
	trees := make([]core.NamedTree, 0, 2)
	for _, h := range []struct{ name, xml string }{
		{"str", `<r><s><p>ab</p><p>cd</p></s><s><p>ef</p></s></r>`},
		{"phys", `<r><pg>abc</pg><pg>def</pg></r>`},
	} {
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

// TestExplainChainScan checks a leading child:: chain is lowered to one
// axis-step operator per step, with no index scan, and selects the right
// nodes; the last step's row count is the result's.
func TestExplainChainScan(t *testing.T) {
	d := chainDoc(t)
	for _, tc := range []struct {
		src  string
		rows int64
	}{
		{`/child::s/child::p`, 3},
		{`/child::s/child::s`, 0},  // wrong nesting
		{`/child::p/child::ab`, 0}, // absent name
	} {
		seq, tree, err := MustCompile(tc.src).Explain(d, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		steps := findOps(tree, "axis-step")
		if len(steps) != 2 || len(findOps(tree, "index-scan")) != 0 {
			t.Fatalf("%s: want two axis-step ops and no index scan: %+v", tc.src, tree)
		}
		if int64(len(seq)) != tc.rows || steps[1].OutRows != tc.rows {
			t.Errorf("%s: len=%d out_rows=%d, want %d", tc.src, len(seq), steps[1].OutRows, tc.rows)
		}
	}
}

// TestOnePlanPerQuery checks a query has exactly one plan: PlanFor
// returns the same plan for two versions of a document, for documents
// of different hierarchy layouts, for an analyze-string overlay
// document, and to goroutines planning and evaluating concurrently
// (run with -race, as CI does).
func TestOnePlanPerQuery(t *testing.T) {
	q := MustCompile(`count(/descendant::w), count(/descendant::p)`)
	plan := q.PlanFor(corpus.MustBoethius())

	b := corpus.MustBoethius()
	u, err := CompileUpdate(`rename node (//w)[1] as "word"`)
	if err != nil {
		t.Fatal(err)
	}
	next, _, err := u.Apply(b)
	if err != nil {
		t.Fatal(err)
	}
	top := dom.NewElement("res")
	top.Start, top.End = 0, len(b.Text)
	overlay, err := b.AddHierarchy("rest", top, true)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		d    *core.Document
		want string
	}{
		{"boethius", b, "6 0"},
		{"next version", next, "5 0"},
		{"chain", chainDoc(t), "0 3"},
		{"overlay", overlay, "6 0"},
	}
	for _, tc := range cases {
		if q.PlanFor(tc.d) != plan {
			t.Errorf("%s: PlanFor returned another plan", tc.name)
		}
		seq, err := q.Eval(tc.d)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := Serialize(seq); got != tc.want {
			t.Errorf("%s: %q, want %q", tc.name, got, tc.want)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		tc := cases[i%len(cases)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				pl := q.PlanFor(tc.d)
				if pl != plan {
					errs <- fmt.Errorf("%s: goroutine got another plan", tc.name)
					return
				}
				seq, err := pl.Eval(tc.d, nil, nil)
				if err != nil {
					errs <- err
					return
				}
				if got := Serialize(seq); got != tc.want {
					errs <- fmt.Errorf("%s: concurrent eval = %q, want %q", tc.name, got, tc.want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// ---- differential sweep: planner vs reference oracle ----------------------

// queryII1Src is the paper's Query II.1 and queryIII1Src its Query III.1
// at match level, as in paper_test.go.
const (
	queryII1Src = `for $w in /descendant::w[matches(string(.), ".*unawe.*")]
return (
  let $res := analyze-string($w, ".*unawe.*")
  for $n in $res/child::node()
  return if ($n[self::m]) then <b>{string($n)}</b> else string($n)
  ,
  <br/>
)`
	queryIII1Src = `for $w in /descendant::w[matches(string(.), ".*unawe.*")]
return (
  let $res := analyze-string($w, ".*unawe.*")
  for $n in $res/child::node()
  return
    if ($n[self::m][xancestor::res('restoration') or xdescendant::res('restoration') or overlapping::res('restoration')])
    then <i><b>{string($n)}</b></i>
    else <b>{string($n)}</b>
  ,
  <br/>
)`
)

// planPaperQueries mirrors the paper-query sources of paper_test.go and
// the P9 fixtures of bench_test.go (both live in external test packages
// and cannot be imported here); keep them in sync.
var planPaperQueries = []string{
	// Query I.1
	`for $l in /descendant::line
  [xdescendant::w[string(.) = 'singallice'] or overlapping::w[string(.) = 'singallice']]
return string($l)`,
	// Query I.2 strict
	`for $l in /descendant::line[xdescendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]
return ( for $leaf in $l/descendant::leaf() return
   if ($leaf[ancestor::w and ancestor::dmg]) then <b>{$leaf}</b> else $leaf
 , <br/> )`,
	// Query I.2 word-level
	`for $l in /descendant::line[xdescendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]
return ( for $leaf in $l/descendant::leaf() return
   if ($leaf[ancestor::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]) then <b>{$leaf}</b> else $leaf
 , <br/> )`,
	// Definition 4, Example 1
	`for $w in /descendant::w[string(.) = 'unawendendne']
return serialize(analyze-string($w, ".*un<a>a</a>we.*"))`,
	queryII1Src,
	queryIII1Src,
	// Query III.1 leaf-level
	`for $w in /descendant::w[matches(string(.), ".*unawe.*")]
return (
  let $res := analyze-string($w, ".*unawe.*")
  for $leaf in $res/descendant::leaf()
  return
    if ($leaf/xancestor::m and $leaf/xancestor::res('restoration')) then <i><b>{$leaf}</b></i>
    else if ($leaf/xancestor::m) then <b>{$leaf}</b>
    else string($leaf)
  ,
  <br/>
)`,
	// P9 path-pipeline fixtures
	`count(/descendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg])`,
	`count(/descendant::w[overlapping::line])`,
	`count(/descendant::vline/child::w/descendant::leaf())`,
	`count(/descendant::vline/child::w[1])`,
}

// TestPlanDifferentialPaperQueries runs every paper query and P9
// fixture through the planner and requires the oracle's result.
// Constructors and analyze-string rebuild nodes per evaluation, so the
// comparison is serialization (pure path queries are additionally
// node-identity-checked by the fuzz sweep below).
func TestPlanDifferentialPaperQueries(t *testing.T) {
	t.Parallel()
	for name, d := range diffDocs(t) {
		for _, src := range planPaperQueries {
			fast, ref, fastErr, refErr := evalBoth(t, d, src)
			if (fastErr == nil) != (refErr == nil) {
				t.Errorf("%s: %q: planner err=%v, reference err=%v", name, src, fastErr, refErr)
				continue
			}
			if fastErr != nil {
				continue
			}
			if Serialize(fast) != Serialize(ref) {
				t.Errorf("%s: %q:\n  planner:   %s\n  reference: %s",
					name, src, Serialize(fast), Serialize(ref))
			}
		}
	}
}

// ---- fuzz: random path expressions ----------------------------------------

var fuzzAxes = []string{
	"child", "descendant", "descendant-or-self", "parent", "ancestor",
	"ancestor-or-self", "following", "preceding", "following-sibling",
	"preceding-sibling", "self", "xdescendant", "xancestor", "xfollowing",
	"xpreceding", "overlapping", "preceding-overlapping", "following-overlapping",
}

var fuzzTests = []string{
	"w", "line", "vline", "dmg", "res", "zzz", "node()", "text()", "leaf()",
	"*", "w('structure')", "node('physical')", "leaf('physical,damage')",
	"line('nope')", "w('structure,damage')", "dmg('damage,damage')",
}

var fuzzPreds = []string{
	"", "", "", "[1]", "[2]", "[last()]", "[position() <= 2]", "[xdescendant::w]",
}

// randomPath generates one random (possibly abbreviated) absolute path
// expression.
func randomPath(r *rand.Rand) string {
	var b strings.Builder
	n := 1 + r.Intn(3)
	for i := 0; i < n; i++ {
		if r.Intn(4) == 0 {
			b.WriteString("//")
			// After // an abbreviated name test half the time (the
			// fusion path), a full axis step otherwise.
			if r.Intn(2) == 0 {
				b.WriteString(fuzzTests[r.Intn(len(fuzzTests))])
				b.WriteString(fuzzPreds[r.Intn(len(fuzzPreds))])
				continue
			}
		} else {
			b.WriteString("/")
		}
		b.WriteString(fuzzAxes[r.Intn(len(fuzzAxes))])
		b.WriteString("::")
		b.WriteString(fuzzTests[r.Intn(len(fuzzTests))])
		b.WriteString(fuzzPreds[r.Intn(len(fuzzPreds))])
	}
	return b.String()
}

// randomChain generates a leading child:: chain of an absolute path.
func randomChain(r *rand.Rand) string {
	names := []string{"cotext", "text", "line", "vline", "w", "dmg", "res", "zzz"}
	var b strings.Builder
	n := 2 + r.Intn(3)
	for i := 0; i < n; i++ {
		b.WriteString("/child::")
		b.WriteString(names[r.Intn(len(names))])
	}
	if r.Intn(3) == 0 {
		b.WriteString("/descendant::leaf()")
	}
	return b.String()
}

// TestPlanDifferentialRandomPaths is the fuzz-style sweep: hundreds of
// seeded random path expressions, planner vs oracle, node-identical.
func TestPlanDifferentialRandomPaths(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(20260729))
	docs := diffDocs(t)
	queries := make([]string, 0, 260)
	for i := 0; i < 220; i++ {
		queries = append(queries, randomPath(r))
	}
	for i := 0; i < 40; i++ {
		queries = append(queries, randomChain(r))
	}
	for _, src := range queries {
		for name, d := range docs {
			fast, ref, fastErr, refErr := evalBoth(t, d, src)
			if (fastErr == nil) != (refErr == nil) {
				t.Errorf("%s: %q: planner err=%v, reference err=%v", name, src, fastErr, refErr)
				continue
			}
			if fastErr != nil {
				fe, fok := fastErr.(*Error)
				re, rok := refErr.(*Error)
				if !fok || !rok || fe.Code != re.Code {
					t.Errorf("%s: %q: planner err=%v, reference err=%v", name, src, fastErr, refErr)
				}
				continue
			}
			if !sameItems(fast, ref) {
				t.Errorf("%s: %q:\n  planner:   %s\n  reference: %s",
					name, src, Serialize(fast), Serialize(ref))
			}
		}
	}
}

// ---- race: index build vs analyze-string overlays -------------------------

// TestNameIndexConcurrentWithOverlays queries a document (building its
// structural name indexes lazily) while other goroutines run
// analyze-string queries that create overlay documents sharing the same
// hierarchies — the lazy index build must be race-free (run with
// -race, as CI does).
func TestNameIndexConcurrentWithOverlays(t *testing.T) {
	trees, err := corpus.BoethiusTrees()
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Build(trees) // fresh document: indexes not yet built
	if err != nil {
		t.Fatal(err)
	}
	qIndex := MustCompile(`count(/descendant::w) + count(/descendant::line) + count(/descendant::dmg)`)
	// The overlay query advances its evaluation to an overlay document
	// and then index-scans through it, touching the shared base
	// hierarchies' indexes from the overlay side.
	qOverlay := MustCompile(`let $r := analyze-string(/descendant::w[2], "e")
return count(/descendant::line) + count($r/descendant::m)`)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := qIndex.Eval(d); err != nil {
					errs <- err
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := qOverlay.Eval(d); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPlanOverlayIndexScan pins the single-evaluation overlay behavior:
// after analyze-string the active document is an overlay whose layout
// differs from the planned one, and the index scan must rebind and
// still produce oracle results.
func TestPlanOverlayIndexScan(t *testing.T) {
	d := corpus.MustBoethius()
	for _, src := range []string{
		// <m> exists only in the overlay: the base document's binding
		// (symbol 0) must not leak into the overlay scan.
		`let $r := analyze-string(/descendant::w[2], "en") return count($r/descendant::m)`,
		`let $r := analyze-string(/descendant::w[2], "en") return count(/descendant::m)`,
		// Base-hierarchy scan through the overlay document.
		`let $r := analyze-string(/descendant::w[2], "en") return count(/descendant::line)`,
	} {
		fast, ref, fastErr, refErr := evalBoth(t, d, src)
		if fastErr != nil || refErr != nil {
			t.Fatalf("%q: err %v / %v", src, fastErr, refErr)
		}
		if Serialize(fast) != Serialize(ref) {
			t.Errorf("%q: planner %s, reference %s", src, Serialize(fast), Serialize(ref))
		}
	}
}

// TestPlanExplainAcrossDocs checks a plan evaluates correctly against a
// document of a different layout than it was planned for (scans bind
// names to the document they run on).
func TestPlanExplainAcrossDocs(t *testing.T) {
	q := MustCompile(`count(/descendant::p) , count(/descendant::w)`)
	b := corpus.MustBoethius()
	other := chainDoc(t)
	pl := q.PlanFor(b)
	seq, err := pl.Eval(other, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := Serialize(seq); got != "3 0" {
		t.Fatalf("cross-document plan eval = %q, want \"3 0\"", got)
	}
}

func TestPlanDescribe(t *testing.T) {
	q := MustCompile(`/descendant::line[1]/child::node()`)
	tree := q.PlanFor(corpus.MustBoethius()).Describe()
	if tree.Op != "query" || len(findOps(tree, "index-scan")) != 1 || len(findOps(tree, "axis-step")) != 1 {
		t.Fatalf("describe tree = %+v", tree)
	}
}
